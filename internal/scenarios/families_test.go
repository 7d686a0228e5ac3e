package scenarios

import (
	"fmt"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
)

// graphDigest hashes a scenario's connection graph into a stable hex
// string: vertex names/kinds in ID order, then edges in insertion order.
func graphDigest(g *graph.Graph) string {
	d := failure.NewDigest()
	d.Str("nptsn-scenario-graph-v1")
	for v := 0; v < g.NumVertices(); v++ {
		vert := g.MustVertex(v)
		d.Str(vert.Name)
		d.Int(int(vert.Kind))
	}
	for _, e := range g.Edges() {
		d.Int(e.U)
		d.Int(e.V)
		d.Float(e.Length)
	}
	return d.Sum()
}

func TestFamilyShapes(t *testing.T) {
	cases := []struct {
		family string
		es, sw int
	}{
		{"ring", 6, 3}, {"ring", 10, 5},
		{"mesh", 6, 2}, {"mesh", 8, 4},
		{"dualstar", 6, 2}, {"dualstar", 9, 5},
		{"zonal", 8, 4}, {"zonal", 12, 6},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%des-%dsw", tc.family, tc.es, tc.sw), func(t *testing.T) {
			s, err := Family(tc.family, tc.es, tc.sw)
			if err != nil {
				t.Fatal(err)
			}
			g := s.Connections
			if got := len(g.VerticesOfKind(graph.KindEndStation)); got != tc.es {
				t.Fatalf("ES = %d, want %d", got, tc.es)
			}
			if got := len(g.VerticesOfKind(graph.KindSwitch)); got != tc.sw {
				t.Fatalf("SW = %d, want %d", got, tc.sw)
			}
			// Every ES: exactly two candidate attachments, both to switches.
			for _, es := range g.VerticesOfKind(graph.KindEndStation) {
				if d := g.Degree(es); d != 2 {
					t.Fatalf("es %d degree = %d, want 2", es, d)
				}
				for _, n := range g.Neighbors(es) {
					if g.Kind(n) != graph.KindSwitch {
						t.Fatalf("es %d linked to non-switch %d", es, n)
					}
				}
			}
			// Switch backbone connected.
			sws := g.VerticesOfKind(graph.KindSwitch)
			for _, sw := range sws[1:] {
				if !g.Connected(sws[0], sw) {
					t.Fatalf("backbone disconnected at switch %d", sw)
				}
			}
			// Problems built on it validate and MaxESDegree=2 is satisfiable.
			prob := s.Problem(s.RandomFlows(3, 1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
			if err := prob.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := Family("ring", 4, 2); err == nil {
		t.Error("ring with 2 switches accepted (no cycle possible)")
	}
	if _, err := Family("mesh", 4, 1); err == nil {
		t.Error("mesh with 1 switch accepted")
	}
	if _, err := Family("dualstar", 4, 1); err == nil {
		t.Error("dualstar with 1 switch accepted")
	}
	if _, err := Family("zonal", 4, 3); err == nil {
		t.Error("zonal with 3 switches accepted (needs 2 spine + 2 zones)")
	}
	if _, err := Family("torus", 4, 4); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Family("ring", 1, 3); err == nil {
		t.Error("1 end station accepted")
	}
}

// TestFamilyGolden pins the families byte-for-byte: a change to any
// generator that alters its output must update these digests consciously,
// because churn traces and warm-start evaluations key off the exact graphs.
func TestFamilyGolden(t *testing.T) {
	golden := map[string]string{
		"ring-6es-3sw":     "efbfd785fb100cfc5e155ae2854c6d7a",
		"mesh-6es-4sw":     "18b610d7872657f32917d612006cb60a",
		"dualstar-6es-3sw": "6ffea5a7c0b4f634d07664d7162cfcab",
		"zonal-8es-4sw":    "b81a2d6f7ca53a6e2592f1faefc9866a",
	}
	build := map[string]func() (*Scenario, error){
		"ring-6es-3sw":     func() (*Scenario, error) { return Family("ring", 6, 3) },
		"mesh-6es-4sw":     func() (*Scenario, error) { return Family("mesh", 6, 4) },
		"dualstar-6es-3sw": func() (*Scenario, error) { return Family("dualstar", 6, 3) },
		"zonal-8es-4sw":    func() (*Scenario, error) { return Family("zonal", 8, 4) },
	}
	for name, want := range golden {
		s, err := build[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("scenario name = %q, want %q", s.Name, name)
		}
		if got := graphDigest(s.Connections); got != want {
			t.Errorf("%s digest = %s, want %s", name, got, want)
		}
	}
}
