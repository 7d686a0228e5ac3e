package viz

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

func vizProblem(t testing.TB) (*core.Problem, *core.Solution) {
	t.Helper()
	g := graph.New()
	g.AddVertex("cam", graph.KindEndStation)
	g.AddVertex("ecu", graph.KindEndStation)
	g.AddVertex("swA", graph.KindSwitch)
	g.AddVertex("swB", graph.KindSwitch)
	for es := 0; es < 2; es++ {
		for sw := 2; sw < 4; sw++ {
			if err := g.AddEdge(es, sw, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	net := tsn.DefaultNetwork()
	prob := &core.Problem{
		Connections:     g,
		Net:             net,
		Flows:           tsn.FlowSet{{ID: 0, Src: 0, Dsts: []int{1}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64}},
		NBF:             &nbf.StatelessRecovery{},
		ReliabilityGoal: 1e-6,
		Library:         asil.DefaultLibrary(),
		MaxESDegree:     2,
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	if err := state.UpgradeSwitch(2); err != nil { // only swA selected
		t.Fatal(err)
	}
	for es := 0; es < 2; es++ {
		if err := state.AddPath(graph.Path{es, 2}); err != nil {
			t.Fatal(err)
		}
	}
	return prob, &core.Solution{Topology: state.Topo, Assignment: state.Assign}
}

func TestWriteSolution(t *testing.T) {
	prob, sol := vizProblem(t)
	var buf bytes.Buffer
	if err := WriteSolution(&buf, prob, sol, "plan \"v1\""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph \"plan 'v1'\"", "n0 [label=\"cam\", shape=box"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Selected switch carries its ASIL; unselected one is dashed grey.
	if !strings.Contains(out, "ASIL-A") {
		t.Fatalf("selected switch missing ASIL label:\n%s", out)
	}
	if !strings.Contains(out, "style=dashed, color=grey") {
		t.Fatalf("unselected switch not dashed:\n%s", out)
	}
	// Only selected links are drawn (2 solution edges, not 4 candidates).
	if got := strings.Count(out, " -- "); got != 2 {
		t.Fatalf("edges drawn = %d, want 2:\n%s", got, out)
	}
}

func TestWriteSolutionNil(t *testing.T) {
	prob, _ := vizProblem(t)
	if err := WriteSolution(&bytes.Buffer{}, prob, nil, "x"); err == nil {
		t.Fatal("nil solution accepted")
	}
}

func TestAsilColorsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range asil.Levels() {
		c := asilColor(l)
		if seen[c] {
			t.Fatalf("duplicate color %s", c)
		}
		seen[c] = true
	}
	if asilColor(asil.Level(0)) == "" {
		t.Fatal("unknown level needs a fallback color")
	}
}
