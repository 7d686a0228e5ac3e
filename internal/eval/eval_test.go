package eval

import (
	"strings"
	"testing"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/scenarios"
	"repro/internal/tsn"
)

// microScenario is a 4-ES / 2-SW scenario small enough to sweep in tests.
func microScenario(t testing.TB) *scenarios.Scenario {
	t.Helper()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", graph.KindEndStation)
	}
	for i := 0; i < 2; i++ {
		g.AddVertex("", graph.KindSwitch)
	}
	for es := 0; es < 4; es++ {
		for sw := 4; sw < 6; sw++ {
			if err := g.AddEdge(es, sw, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.AddEdge(4, 5, 1); err != nil {
		t.Fatal(err)
	}
	// Manual original: dual-homed (a valid ASIL-D design).
	orig := g.EmptyLike()
	for es := 0; es < 4; es++ {
		for sw := 4; sw < 6; sw++ {
			if err := orig.AddEdge(es, sw, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &scenarios.Scenario{
		Name:        "micro",
		Connections: g,
		Original:    orig,
		Net:         tsn.DefaultNetwork(),
	}
}

func microCfg(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.GCNLayers = 1
	cfg.GCNHidden = 8
	cfg.EmbeddingPerNode = 2
	cfg.MLPHidden = []int{16}
	cfg.K = 4
	cfg.MaxEpoch = 2
	cfg.MaxStep = 60
	cfg.TrainPiIters = 3
	cfg.TrainVIters = 3
	cfg.Seed = seed
	return cfg
}

func TestRunCaseAllApproaches(t *testing.T) {
	s := microScenario(t)
	flows := s.RandomFlows(3, 1)
	prob := s.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	res, err := RunCase(prob, s.Original, microCfg(1), AllApproaches())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results for %d approaches, want 4 (%v)", len(res), SortedApproaches(res))
	}
	orig := res[ApproachOriginal]
	if !orig.GuaranteeMet {
		t.Fatalf("dual-homed original must pass: %s", orig.Reason)
	}
	if orig.Cost != 118 {
		t.Fatalf("original cost = %v, want 118", orig.Cost)
	}
	trh := res[ApproachTRH]
	if !trh.GuaranteeMet {
		t.Fatalf("TRH must pass on micro scenario: %s", trh.Reason)
	}
	if trh.Cost >= orig.Cost {
		t.Fatalf("TRH (all B) should undercut Original (all D): %v vs %v", trh.Cost, orig.Cost)
	}
	// NPTSN and NeuroPlan may or may not find solutions in 2 micro-epochs;
	// whatever they report must be consistent.
	for _, ap := range []Approach{ApproachNPTSN, ApproachNeuroPlan} {
		r := res[ap]
		if r.GuaranteeMet && r.Cost <= 0 {
			t.Fatalf("%s: guarantee met without a cost", ap)
		}
		if !r.GuaranteeMet && r.Reason == "" {
			t.Fatalf("%s: failed guarantee without a reason", ap)
		}
	}
}

func TestRunCaseSkipsOriginalWithoutTopology(t *testing.T) {
	s := microScenario(t)
	flows := s.RandomFlows(2, 3)
	prob := s.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	res, err := RunCase(prob, nil, microCfg(1), []Approach{ApproachOriginal, ApproachTRH})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res[ApproachOriginal]; ok {
		t.Fatal("original should be skipped without a manual topology")
	}
	if _, ok := res[ApproachTRH]; !ok {
		t.Fatal("TRH missing")
	}
}

func TestRunCaseUnknownApproach(t *testing.T) {
	s := microScenario(t)
	prob := s.Problem(s.RandomFlows(2, 3), &nbf.StatelessRecovery{}, 1e-6)
	if _, err := RunCase(prob, nil, microCfg(1), []Approach{"bogus"}); err == nil {
		t.Fatal("unknown approach accepted")
	}
}

func TestAggregateAndRender(t *testing.T) {
	mk := func(met bool, cost float64, levels map[asil.Level]int) CaseResult {
		return CaseResult{GuaranteeMet: met, Cost: cost, SwitchLevels: levels}
	}
	cases := []map[Approach]CaseResult{
		{
			ApproachNPTSN: mk(true, 100, map[asil.Level]int{asil.LevelA: 2}),
			ApproachTRH:   mk(false, 200, nil),
		},
		{
			ApproachNPTSN: mk(true, 140, map[asil.Level]int{asil.LevelA: 1, asil.LevelC: 1}),
			ApproachTRH:   mk(true, 260, nil),
		},
	}
	row := Aggregate(10, cases, []Approach{ApproachTRH, ApproachNPTSN})
	if row.GuaranteeRate[ApproachNPTSN] != 1.0 {
		t.Fatalf("nptsn rate = %v", row.GuaranteeRate[ApproachNPTSN])
	}
	if row.GuaranteeRate[ApproachTRH] != 0.5 {
		t.Fatalf("trh rate = %v", row.GuaranteeRate[ApproachTRH])
	}
	if row.MeanCost[ApproachNPTSN] != 120 {
		t.Fatalf("nptsn mean cost = %v", row.MeanCost[ApproachNPTSN])
	}
	if row.SwitchLevels[ApproachNPTSN][asil.LevelA] != 3 {
		t.Fatalf("switch histogram = %v", row.SwitchLevels[ApproachNPTSN])
	}

	res := &Fig4Result{Rows: []Fig4Row{row}, Approaches: []Approach{ApproachTRH, ApproachNPTSN}}
	g := res.RenderGuarantee()
	if !strings.Contains(g, "Fig 4(a)") || !strings.Contains(g, "100%") || !strings.Contains(g, "50%") {
		t.Fatalf("guarantee render:\n%s", g)
	}
	c := res.RenderCost()
	if !strings.Contains(c, "Fig 4(b)") || !strings.Contains(c, "120.0") {
		t.Fatalf("cost render:\n%s", c)
	}
	a := res.RenderASIL()
	if !strings.Contains(a, "Fig 4(c)") || !strings.Contains(a, "nptsn") {
		t.Fatalf("asil render:\n%s", a)
	}
}

func TestRunFig4MicroSweep(t *testing.T) {
	s := microScenario(t)
	res, err := RunFig4(Fig4Options{
		Scenario:   s,
		FlowCounts: []int{2, 3},
		Cases:      2,
		Seed:       1,
		Cfg:        microCfg(1),
		Approaches: []Approach{ApproachOriginal, ApproachTRH},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Cases != 2 {
			t.Fatalf("cases = %d", row.Cases)
		}
		if row.GuaranteeRate[ApproachOriginal] != 1.0 {
			t.Fatalf("original rate = %v", row.GuaranteeRate[ApproachOriginal])
		}
	}
	if _, err := RunFig4(Fig4Options{}); err == nil {
		t.Fatal("nil scenario accepted")
	}
}

func TestRunSensitivityAndRender(t *testing.T) {
	s := microScenario(t)
	prob := s.Problem(s.RandomFlows(3, 5), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	cfgA := microCfg(1)
	cfgB := microCfg(1)
	cfgB.GCNLayers = 0
	res, err := RunSensitivity("Fig 5(a): impact of the number of GCN layers",
		prob, []SensitivityVariant{{Label: "GCN-1", Cfg: cfgA}, {Label: "GCN-0", Cfg: cfgB}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 2 {
		t.Fatalf("labels = %v", res.Labels)
	}
	for _, l := range res.Labels {
		if len(res.Rewards[l]) != cfgA.MaxEpoch {
			t.Fatalf("%s: %d epochs", l, len(res.Rewards[l]))
		}
	}
	out := res.Render()
	if !strings.Contains(out, "GCN-1") || !strings.Contains(out, "epoch") {
		t.Fatalf("render:\n%s", out)
	}

	bad := microCfg(1)
	bad.K = 0
	if _, err := RunSensitivity("x", prob, []SensitivityVariant{{Label: "bad", Cfg: bad}}); err == nil {
		t.Fatal("invalid variant accepted")
	}
}

func TestSortedApproaches(t *testing.T) {
	m := map[Approach]CaseResult{
		ApproachTRH:      {},
		ApproachNPTSN:    {},
		ApproachOriginal: {},
	}
	got := SortedApproaches(m)
	want := []Approach{ApproachNPTSN, ApproachOriginal, ApproachTRH}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
