// End-to-end integration tests across module boundaries: plan a network,
// verify it independently, exercise the recovery drill the guarantee is
// built on, and check cross-package determinism.
package repro_test

import (
	"testing"

	"repro/internal/asil"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/tsn"
)

// planADS trains a scaled-down planner on the ADS scenario.
func planADS(t *testing.T, seed int64) (*core.Problem, *core.Report) {
	t.Helper()
	scen := mustADS(t)
	prob := scen.Problem(scenarios.ADSFlows(seed), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	cfg := microCfg(seed)
	cfg.MaxEpoch = 4
	cfg.MaxStep = 96
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return prob, report
}

func TestEndToEndADSPlanVerifyRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prob, report := planADS(t, 1)
	if !report.GuaranteeMet() {
		t.Fatal("no solution on ADS at the integration budget")
	}
	sol := report.Best
	if err := core.VerifySolution(prob, sol); err != nil {
		t.Fatal(err)
	}

	// Failure drill: every selected switch whose failure is a non-safe
	// fault must be recoverable, and the recovered schedule must verify on
	// the residual network.
	lib := prob.Library
	for sw, lvl := range sol.Assignment.Switches {
		if lib.FailureProb(lvl) < prob.ReliabilityGoal {
			continue // safe fault
		}
		gf := nbf.Failure{Nodes: []int{sw}}
		st, er, err := prob.NBF.Recover(sol.Topology, gf, prob.Net, prob.Flows)
		if err != nil {
			t.Fatal(err)
		}
		if len(er) != 0 {
			t.Fatalf("switch %d (ASIL-%s) failure not recoverable: %v", sw, lvl, er)
		}
		residual := sol.Topology.Residual(gf.Nodes, gf.Edges)
		if err := tsn.VerifyState(residual, prob.Net, prob.Flows, st); err != nil {
			t.Fatalf("recovered schedule invalid after switch %d failure: %v", sw, err)
		}
		// The recovered schedule must expand into a collision-free GCL.
		if _, err := tsn.BuildGCL(prob.Net, prob.Flows, st); err != nil {
			t.Fatalf("GCL after switch %d failure: %v", sw, err)
		}
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	_, r1 := planADS(t, 3)
	_, r2 := planADS(t, 3)
	if (r1.Best == nil) != (r2.Best == nil) {
		t.Fatal("solution presence differs across identical runs")
	}
	if r1.Best != nil && r1.Best.Cost != r2.Best.Cost {
		t.Fatalf("best costs differ: %v vs %v", r1.Best.Cost, r2.Best.Cost)
	}
	if len(r1.Epochs) != len(r2.Epochs) {
		t.Fatal("epoch counts differ")
	}
	for i := range r1.Epochs {
		if r1.Epochs[i].Reward != r2.Epochs[i].Reward {
			t.Fatalf("epoch %d rewards differ", i)
		}
	}
}

func TestEndToEndSolutionSurvivesBruteForceCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prob, report := planADS(t, 5)
	if !report.GuaranteeMet() {
		t.Fatal("no solution")
	}
	// The solution passed Algorithm 3 during planning; it must also pass
	// the exhaustive brute-force enumeration over switches AND links.
	bf := &failure.BruteForce{
		Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: prob.ReliabilityGoal,
	}
	res, err := bf.Analyze(report.Best.Topology, report.Best.Assignment, prob.Flows)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("brute force found a non-safe unrecoverable fault: %v (ER %v)", res.Failure, res.ER)
	}
}

func TestEndToEndORIONOriginalBaseline(t *testing.T) {
	// The reconstructed ORION original must be a valid all-ASIL-D design
	// at R = 1e-6 for a light flow load (the Fig. 4a premise).
	scen := mustORION(t)
	flows := scen.RandomFlows(10, 2)
	prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	res, err := (&baselines.Original{Topology: scen.Original}).Plan(prob)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GuaranteeMet {
		t.Fatalf("original ORION rejected: %s", res.Reason)
	}
	// All-ASIL-D pricing: the paper reports 986 for its layout; our
	// reconstruction must land in the same regime (hundreds).
	if res.Solution.Cost < 500 || res.Solution.Cost > 1500 {
		t.Fatalf("original cost = %v, expected ORION-scale ASIL-D pricing", res.Solution.Cost)
	}
}

func TestEndToEndFig4MicroOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-planner run")
	}
	// One ORION case at micro budget: NPTSN and the baselines must
	// reproduce the paper's cost ordering Original > NPTSN when both meet
	// the guarantee.
	scen := mustORION(t)
	flows := scen.RandomFlows(10, 4)
	prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	cfg := microCfg(2)
	res, err := eval.RunCase(prob, scen.Original, cfg,
		[]eval.Approach{eval.ApproachOriginal, eval.ApproachNPTSN})
	if err != nil {
		t.Fatal(err)
	}
	orig := res[eval.ApproachOriginal]
	nptsn := res[eval.ApproachNPTSN]
	if !orig.GuaranteeMet {
		t.Fatalf("original failed: %s", orig.Reason)
	}
	if nptsn.GuaranteeMet && nptsn.Cost >= orig.Cost {
		t.Fatalf("NPTSN cost %v did not beat Original %v", nptsn.Cost, orig.Cost)
	}
}

func TestEndToEndSwitchASILBias(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	// Fig. 4(c) shape: NPTSN approaches the goal from low ASIL, so its
	// solutions should mostly use A/B switches on ADS.
	_, report := planADS(t, 7)
	if !report.GuaranteeMet() {
		t.Fatal("no solution")
	}
	low, total := 0, 0
	for _, lvl := range report.Best.Assignment.Switches {
		total++
		if lvl <= asil.LevelB {
			low++
		}
	}
	if total == 0 {
		t.Fatal("no switches selected")
	}
	if low == 0 {
		t.Fatalf("expected some low-ASIL switches, got none of %d", total)
	}
}

func TestEndToEndCheapestSolutionImprovesWithBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs")
	}
	scen := mustADS(t)
	prob := scen.Problem(scenarios.ADSFlows(9), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	run := func(epochs, steps int) float64 {
		cfg := microCfg(9)
		cfg.MaxEpoch = epochs
		cfg.MaxStep = steps
		pl, err := core.NewPlanner(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := pl.Plan()
		if err != nil {
			t.Fatal(err)
		}
		if report.Best == nil {
			return 1 << 30
		}
		return report.Best.Cost
	}
	smallCost := run(2, 48)
	bigCost := run(8, 160)
	if bigCost > smallCost {
		t.Fatalf("more budget produced a worse best cost: %v -> %v", smallCost, bigCost)
	}
}

func TestEndToEndEq6ReductionOnPlannedTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	// On a real planned topology, every link failure maps (Eq. 6) to a
	// switch failure whose residual is contained and whose probability is
	// no smaller.
	prob, report := planADS(t, 11)
	if !report.GuaranteeMet() {
		t.Fatal("no solution")
	}
	sol := report.Best
	lib := prob.Library
	for _, e := range sol.Topology.Edges() {
		gf := nbf.Failure{Edges: []graph.Edge{e}}
		reduced := failure.ReduceToSwitchFailure(sol.Topology, sol.Assignment, gf)
		if len(reduced.Nodes) == 0 {
			t.Fatalf("link (%d,%d) did not reduce to a switch failure", e.U, e.V)
		}
		if !failure.ResidualIsSubgraph(sol.Topology, reduced, gf) {
			t.Fatalf("residual containment violated for link (%d,%d)", e.U, e.V)
		}
		pLink, err := asil.FailureProbability(sol.Assignment, lib, nil, []graph.Edge{e})
		if err != nil {
			t.Fatal(err)
		}
		pSwitch, err := asil.FailureProbability(sol.Assignment, lib, reduced.Nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pSwitch < pLink {
			t.Fatalf("link (%d,%d): switch probability %v < link probability %v", e.U, e.V, pSwitch, pLink)
		}
	}
}

// TestEndToEndNPTSNApproachesExactOptimum validates the RL planner's
// solution quality against the branch-and-bound optimum on a small
// instance.
func TestEndToEndNPTSNApproachesExactOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	// The tiny 4-ES / 2-SW problem used across the test suites.
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
	net := tsn.DefaultNetwork()
	mk := func(id, src, dst int) tsn.Flow {
		return tsn.Flow{ID: id, Src: src, Dsts: []int{dst}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64}
	}
	prob := &core.Problem{
		Connections:     g,
		Net:             net,
		Flows:           tsn.FlowSet{mk(0, 0, 1), mk(1, 2, 3), mk(2, 1, 2)},
		NBF:             &nbf.StatelessRecovery{MaxAlternatives: 3},
		ReliabilityGoal: 1e-6,
		Library:         asil.DefaultLibrary(),
		MaxESDegree:     2,
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}

	optimum, _, err := (&exact.Planner{}).Plan(prob)
	if err != nil {
		t.Fatal(err)
	}
	if optimum == nil {
		t.Fatal("exact planner found no solution")
	}

	cfg := microCfg(2) // seed chosen to reach the optimum within the scaled-down budget
	cfg.MaxEpoch = 6
	cfg.MaxStep = 160
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !report.GuaranteeMet() {
		t.Fatal("NPTSN found no solution")
	}
	if report.Best.Cost < optimum.Cost {
		t.Fatalf("NPTSN cost %v beats the proven optimum %v — a checker is broken", report.Best.Cost, optimum.Cost)
	}
	// Within 2x of optimal at this scaled-down budget.
	if report.Best.Cost > 2*optimum.Cost {
		t.Fatalf("NPTSN cost %v more than 2x the optimum %v", report.Best.Cost, optimum.Cost)
	}
}

// TestEndToEndSimulateRecoveryOnPlannedNetwork plans a network, then
// replays a failure on the simulator and checks the timeline-level
// behaviour the static guarantee promises.
func TestEndToEndSimulateRecoveryOnPlannedNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prob, report := planADS(t, 13)
	if !report.GuaranteeMet() {
		t.Fatal("no solution")
	}
	sol := report.Best
	// Pick a selected switch whose failure is a non-safe fault.
	target := -1
	for sw, lvl := range sol.Assignment.Switches {
		if prob.Library.FailureProb(lvl) >= prob.ReliabilityGoal {
			target = sw
			break
		}
	}
	if target == -1 {
		t.Skip("all switches are safe-fault grade; nothing to drill")
	}
	s := &sim.Simulator{
		Topo:  sol.Topology,
		Net:   prob.Net,
		Flows: prob.Flows,
		NBF:   prob.NBF,
		Cfg:   sim.Config{HorizonBasePeriods: 32, DetectionSlots: 20, ReconfigSlots: 20},
	}
	res, err := s.Run([]sim.Event{{Slot: 200, Failure: nbf.Failure{Nodes: []int{target}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || !res.Recoveries[0].Recovered {
		t.Fatalf("planned network failed to recover in simulation: %+v", res.Recoveries)
	}
	if res.DeliveryRate() < 0.8 {
		t.Fatalf("delivery rate %v too low around a single recoverable failure", res.DeliveryRate())
	}
}
