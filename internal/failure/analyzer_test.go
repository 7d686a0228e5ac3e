package failure

import (
	"math/rand"
	"testing"

	"repro/internal/asil"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// dualHomed builds nES end stations each connected to both of two
// switches. Any single switch failure is survivable.
func dualHomed(t testing.TB, nES int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < nES; i++ {
		g.AddVertex("", graph.KindEndStation)
	}
	swA := g.AddVertex("swA", graph.KindSwitch)
	swB := g.AddVertex("swB", graph.KindSwitch)
	for i := 0; i < nES; i++ {
		mustEdge(t, g, i, swA)
		mustEdge(t, g, i, swB)
	}
	mustEdge(t, g, swA, swB)
	return g
}

func mustEdge(t testing.TB, g *graph.Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
}

// assignLevels builds an Assignment where each listed switch gets its level
// and every edge of gt inherits min(endpoint levels), with end stations
// treated as ASIL-D — the invariant of §IV-B.
func assignLevels(gt *graph.Graph, levels map[int]asil.Level) *asil.Assignment {
	a := asil.NewAssignment()
	for sw, lvl := range levels {
		a.Switches[sw] = lvl
	}
	lvlOf := func(v int) asil.Level {
		if gt.Kind(v) == graph.KindEndStation {
			return asil.LevelD
		}
		if l, ok := levels[v]; ok {
			return l
		}
		return asil.LevelD
	}
	for _, e := range gt.Edges() {
		a.SetLink(e.U, e.V, asil.Min(lvlOf(e.U), lvlOf(e.V)))
	}
	return a
}

func flow(id, src, dst int) tsn.Flow {
	net := tsn.DefaultNetwork()
	return tsn.Flow{ID: id, Src: src, Dsts: []int{dst}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64}
}

func newAnalyzer(r float64) *Analyzer {
	return &Analyzer{
		Lib: asil.DefaultLibrary(),
		NBF: &nbf.StatelessRecovery{MaxAlternatives: 3},
		Net: tsn.DefaultNetwork(),
		R:   r,
	}
}

func TestAnalyzerAcceptsDualHomedNetwork(t *testing.T) {
	g := dualHomed(t, 3)
	// ASIL-C switches: single failure 1e-5 >= 1e-6, dual 1e-10 < 1e-6.
	a := assignLevels(g, map[int]asil.Level{3: asil.LevelC, 4: asil.LevelC})
	fs := tsn.FlowSet{flow(0, 0, 1), flow(1, 1, 2)}
	res, err := newAnalyzer(1e-6).Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("expected OK, got failure %v ER %v", res.Failure, res.ER)
	}
	if res.MaxOrder != 1 {
		t.Fatalf("MaxOrder = %d, want 1", res.MaxOrder)
	}
	if res.NBFCalls == 0 {
		t.Fatal("analysis should simulate the NBF")
	}
}

func TestAnalyzerRejectsSingleHomedNetwork(t *testing.T) {
	// One ES hangs off a single switch: that switch is a single point of
	// failure at ASIL-A (prob 1e-3 >= R).
	g := graph.New()
	g.AddVertex("", graph.KindEndStation) // 0
	g.AddVertex("", graph.KindEndStation) // 1
	sw := g.AddVertex("", graph.KindSwitch)
	mustEdge(t, g, 0, sw)
	mustEdge(t, g, 1, sw)
	a := assignLevels(g, map[int]asil.Level{sw: asil.LevelA})
	fs := tsn.FlowSet{flow(0, 0, 1)}
	res, err := newAnalyzer(1e-6).Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("single point of failure accepted")
	}
	if len(res.Failure.Nodes) == 0 || len(res.ER) == 0 {
		t.Fatalf("failure scenario not reported: %+v", res)
	}
}

func TestAnalyzerHighASILSinglePointIsSafeFault(t *testing.T) {
	// The same single-homed network with an ASIL-D switch: failure prob
	// 1e-6 >= R=1e-6 still counts; but with R just above it, it is safe.
	g := graph.New()
	g.AddVertex("", graph.KindEndStation)
	g.AddVertex("", graph.KindEndStation)
	sw := g.AddVertex("", graph.KindSwitch)
	mustEdge(t, g, 0, sw)
	mustEdge(t, g, 1, sw)
	a := assignLevels(g, map[int]asil.Level{sw: asil.LevelD})
	fs := tsn.FlowSet{flow(0, 0, 1)}

	// cfp(D) = 1 − e^{−1e-9·1000} is just below 1e-6, so at R = 1e-6 the
	// single ASIL-D failure is a safe fault — the property §VI-A uses to
	// keep the Original ORION topology valid without backups.
	res, err := newAnalyzer(1e-6).Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("ASIL-D single point at R=1e-6 must be a safe fault: %+v", res)
	}
	if res.MaxOrder != 0 {
		t.Fatalf("MaxOrder = %d, want 0", res.MaxOrder)
	}

	// Tightening R below cfp(D) makes the same failure non-safe.
	res, err = newAnalyzer(9e-7).Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("at R=9e-7 the ASIL-D single point must be checked and fail")
	}
}

func TestAnalyzerOrderZeroChecksBaseSchedulability(t *testing.T) {
	// Disconnected demand: even with no failures, flows cannot be
	// established, so the analysis must fail at order 0.
	g := graph.New()
	g.AddVertex("", graph.KindEndStation)
	g.AddVertex("", graph.KindEndStation)
	sw := g.AddVertex("", graph.KindSwitch)
	mustEdge(t, g, 0, sw) // ES 1 left unconnected
	a := assignLevels(g, map[int]asil.Level{sw: asil.LevelD})
	fs := tsn.FlowSet{flow(0, 0, 1)}
	res, err := newAnalyzer(2e-6).Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("unschedulable base network accepted")
	}
	if !res.Failure.Empty() {
		t.Fatalf("order-0 failure should be empty, got %v", res.Failure)
	}
}

func TestAnalyzerSupersetPruningReducesNBFCalls(t *testing.T) {
	// Three dual-homed ES on two ASIL-A switches plus a third backup
	// switch: maxord 2 at R=1e-6 with ASIL-A components.
	g := dualHomed(t, 3)
	swC := g.AddVertex("swC", graph.KindSwitch)
	for i := 0; i < 3; i++ {
		mustEdge(t, g, i, swC) // triple-homed now
	}
	levels := map[int]asil.Level{3: asil.LevelA, 4: asil.LevelA, 5: asil.LevelA}
	a := assignLevels(g, levels)
	fs := tsn.FlowSet{flow(0, 0, 1)}

	pruned := newAnalyzer(1e-6)
	resPruned, err := pruned.Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	unpruned := newAnalyzer(1e-6)
	unpruned.DisableSupersetPruning = true
	resUnpruned, err := unpruned.Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if resPruned.OK != resUnpruned.OK {
		t.Fatalf("pruning changed the verdict: %v vs %v", resPruned.OK, resUnpruned.OK)
	}
	if !resPruned.OK {
		t.Fatalf("triple-homed network should pass: %+v", resPruned)
	}
	if resPruned.NBFCalls >= resUnpruned.NBFCalls {
		t.Fatalf("pruning did not reduce NBF calls: %d vs %d", resPruned.NBFCalls, resUnpruned.NBFCalls)
	}
}

func TestAnalyzerValidation(t *testing.T) {
	g := dualHomed(t, 2)
	a := assignLevels(g, map[int]asil.Level{2: asil.LevelC, 3: asil.LevelC})
	fs := tsn.FlowSet{flow(0, 0, 1)}

	an := newAnalyzer(1e-6)
	an.Lib = nil
	if _, err := an.Analyze(g, a, fs); err == nil {
		t.Error("nil library accepted")
	}
	an = newAnalyzer(1e-6)
	an.NBF = nil
	if _, err := an.Analyze(g, a, fs); err == nil {
		t.Error("nil NBF accepted")
	}
	an = newAnalyzer(0)
	if _, err := an.Analyze(g, a, fs); err == nil {
		t.Error("invalid R accepted")
	}
	an = newAnalyzer(1e-6)
	an.Net = tsn.Network{}
	if _, err := an.Analyze(g, a, fs); err == nil {
		t.Error("invalid network accepted")
	}
	an = newAnalyzer(1e-6)
	bad := a.Clone()
	bad.Switches[2] = asil.Level(9)
	if _, err := an.Analyze(g, bad, fs); err == nil {
		t.Error("invalid switch ASIL accepted")
	}
}

func TestMaxOrder(t *testing.T) {
	prob := map[int]float64{1: 1e-3, 2: 1e-3, 3: 1e-5}
	ids := []int{1, 2, 3}
	if got := maxOrder(ids, prob, 1e-6); got != 2 {
		t.Fatalf("maxOrder = %d, want 2 (1e-3*1e-3 = 1e-6 >= R)", got)
	}
	if got := maxOrder(ids, prob, 1e-2); got != 0 {
		t.Fatalf("maxOrder = %d, want 0", got)
	}
	if got := maxOrder(nil, nil, 1e-6); got != 0 {
		t.Fatalf("empty maxOrder = %d, want 0", got)
	}
}

func TestAnalyzerFlowLevelRedundancyChecksEndStations(t *testing.T) {
	g := dualHomed(t, 2)
	a := assignLevels(g, map[int]asil.Level{2: asil.LevelC, 3: asil.LevelC})
	fs := tsn.FlowSet{flow(0, 0, 1)}

	an := newAnalyzer(9e-7)
	an.FlowLevelRedundancy = true
	res, err := an.Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	// ES failures (ASIL-D, prob ≈1e-6 >= 9e-7) now enter the enumeration;
	// an ES failure kills its own flows, so the guarantee must fail.
	if res.OK {
		t.Fatal("flow-level mode should find ES single points of failure")
	}
	// With the standard goal, ES failures are safe faults again.
	an.R = 1e-6
	res, err = an.Analyze(g, a, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("expected OK at R=1e-6, got %+v", res)
	}
}

func TestAnalyzerMatchesBruteForceOnRandomNetworks(t *testing.T) {
	// Cross-check Algorithm 3 (+ Eq. 6 reduction argument) against the
	// exhaustive node+link enumeration on small random topologies.
	lib := asil.DefaultLibrary()
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nES := 2 + rng.Intn(2)
		nSW := 2 + rng.Intn(2)
		g := graph.New()
		for i := 0; i < nES; i++ {
			g.AddVertex("", graph.KindEndStation)
		}
		for i := 0; i < nSW; i++ {
			g.AddVertex("", graph.KindSwitch)
		}
		levels := make(map[int]asil.Level, nSW)
		for i := 0; i < nSW; i++ {
			levels[nES+i] = asil.Levels()[rng.Intn(4)]
		}
		// Random ES-SW and SW-SW wiring, guaranteeing each ES >= 1 link.
		for i := 0; i < nES; i++ {
			mustEdge(t, g, i, nES+rng.Intn(nSW))
			if rng.Intn(2) == 0 {
				mustEdge(t, g, i, nES+rng.Intn(nSW))
			}
		}
		for i := 0; i < nSW; i++ {
			for j := i + 1; j < nSW; j++ {
				if rng.Intn(2) == 0 {
					mustEdge(t, g, nES+i, nES+j)
				}
			}
		}
		a := assignLevels(g, levels)
		fs := tsn.FlowSet{flow(0, 0, 1)}

		an := newAnalyzer(1e-6)
		resA, err := an.Analyze(g, a, fs)
		if err != nil {
			t.Fatalf("seed %d: analyzer: %v", seed, err)
		}
		bf := &BruteForce{Lib: lib, NBF: an.NBF, Net: an.Net, R: an.R}
		resB, err := bf.Analyze(g, a, fs)
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		if resA.OK != resB.OK {
			t.Fatalf("seed %d: analyzer OK=%v but brute force OK=%v (analyzer failure %v, brute failure %v)",
				seed, resA.OK, resB.OK, resA.Failure, resB.Failure)
		}
		if resA.OK && resA.NBFCalls > resB.NBFCalls {
			t.Fatalf("seed %d: switch-only analysis used more NBF calls (%d) than brute force (%d)",
				seed, resA.NBFCalls, resB.NBFCalls)
		}
	}
}

func TestBruteForceValidation(t *testing.T) {
	g := dualHomed(t, 2)
	a := assignLevels(g, map[int]asil.Level{2: asil.LevelC, 3: asil.LevelC})
	fs := tsn.FlowSet{flow(0, 0, 1)}
	bf := &BruteForce{}
	if _, err := bf.Analyze(g, a, fs); err == nil {
		t.Error("nil deps accepted")
	}
	bf = &BruteForce{Lib: asil.DefaultLibrary(), NBF: &nbf.StatelessRecovery{}, Net: tsn.DefaultNetwork(), R: 0}
	if _, err := bf.Analyze(g, a, fs); err == nil {
		t.Error("invalid R accepted")
	}
	// Missing link ASIL must error.
	bf = &BruteForce{Lib: asil.DefaultLibrary(), NBF: &nbf.StatelessRecovery{}, Net: tsn.DefaultNetwork(), R: 1e-6}
	incomplete := asil.NewAssignment()
	incomplete.Switches[2] = asil.LevelC
	incomplete.Switches[3] = asil.LevelC
	if _, err := bf.Analyze(g, incomplete, fs); err == nil {
		t.Error("missing link ASIL accepted")
	}
}
