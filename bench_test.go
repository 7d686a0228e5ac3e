// Benchmarks regenerating the paper's tables and figures (§VI) at reduced
// scale, plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark prints/reports the same quantity the paper
// plots; absolute numbers differ (pure-Go stack, scaled budgets) but the
// shape — who wins and in which direction parameters move the result — is
// asserted by the test suite and visible in the reported metrics.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/asil"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/scenarios"
	"repro/internal/serialize"
	"repro/internal/tsn"
	"repro/internal/zoo"
)

// microCfg is the scaled-down training budget used by the figure benches.
func microCfg(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.GCNHidden = 8
	cfg.MLPHidden = []int{32, 32}
	cfg.K = 8
	cfg.MaxEpoch = 3
	cfg.MaxStep = 64
	cfg.TrainPiIters = 8
	cfg.TrainVIters = 8
	cfg.Seed = seed
	return cfg
}

// BenchmarkTableI_LibraryOps exercises the component-library primitives of
// Table I: switch/link cost lookup and Eq. 1 / Eq. 2 evaluation.
func BenchmarkTableI_LibraryOps(b *testing.B) {
	lib := asil.DefaultLibrary()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", graph.KindEndStation)
	}
	sw := g.AddVertex("", graph.KindSwitch)
	assign := asil.NewAssignment()
	assign.Switches[sw] = asil.LevelC
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(i, sw, 1); err != nil {
			b.Fatal(err)
		}
		assign.SetLink(i, sw, asil.LevelC)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asil.NetworkCost(g, assign, lib); err != nil {
			b.Fatal(err)
		}
		if _, err := asil.FailureProbability(assign, lib, []int{sw}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_PolicyForwardBackward times one policy forward+backward
// pass of the Table II architecture (GCN-2 + 256x256 MLPs) on an ADS-sized
// observation, through the update's batch path with a batch of one — the
// per-step neural cost of the default configuration.
func BenchmarkTableII_PolicyForwardBackward(b *testing.B) {
	scen := mustADS(b)
	prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig() // Table II as-is
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		b.Fatal(err)
	}
	enc := core.NewEncoder(prob, cfg.K)
	nets, err := core.NewNets(rand.New(rand.NewSource(1)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	set := soag.Generate(state, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 6}}, rand.New(rand.NewSource(1)))
	nets.LoadBatch([]rl.Observation{enc.Encode(state, set)})
	dLogits := nn.NewMatrix(1, soag.ActionSpaceSize())
	dLogits.Data[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nets.ForwardPolicyBatch()
		nets.BackwardPolicyBatch(dLogits)
	}
}

// benchFig4 runs one reduced ORION test case through the requested
// approaches and reports the figure's quantity via b.ReportMetric.
func benchFig4(b *testing.B, approaches []eval.Approach, metric func(map[eval.Approach]eval.CaseResult) (string, float64)) {
	scen := mustORION(b)
	cfg := microCfg(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows := scen.RandomFlows(10, int64(i+1))
		prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
		res, err := eval.RunCase(prob, scen.Original, cfg, approaches)
		if err != nil {
			b.Fatal(err)
		}
		name, v := metric(res)
		b.ReportMetric(v, name)
	}
}

// BenchmarkFig4a_ReliabilityGuarantee regenerates a Fig. 4(a) sample:
// guarantee outcomes of all four approaches on one ORION case.
func BenchmarkFig4a_ReliabilityGuarantee(b *testing.B) {
	benchFig4(b, eval.AllApproaches(), func(res map[eval.Approach]eval.CaseResult) (string, float64) {
		met := 0.0
		for _, r := range res {
			if r.GuaranteeMet {
				met++
			}
		}
		return "approaches_met", met
	})
}

// BenchmarkFig4b_SolutionCost regenerates a Fig. 4(b) sample: the cost
// ratio Original/NPTSN on one ORION case (the paper reports up to 6.8x).
func BenchmarkFig4b_SolutionCost(b *testing.B) {
	benchFig4(b, []eval.Approach{eval.ApproachOriginal, eval.ApproachNPTSN},
		func(res map[eval.Approach]eval.CaseResult) (string, float64) {
			np := res[eval.ApproachNPTSN]
			orig := res[eval.ApproachOriginal]
			if np.Cost <= 0 {
				return "cost_ratio_orig_over_nptsn", 0
			}
			return "cost_ratio_orig_over_nptsn", orig.Cost / np.Cost
		})
}

// BenchmarkFig4c_ASILDistribution regenerates a Fig. 4(c) sample: the
// share of low-ASIL (A/B) switches in NPTSN's solution.
func BenchmarkFig4c_ASILDistribution(b *testing.B) {
	scen := mustADS(b)
	cfg := microCfg(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob := scen.Problem(scenarios.ADSFlows(int64(i+1)), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
		res, err := eval.RunCase(prob, nil, cfg, []eval.Approach{eval.ApproachNPTSN})
		if err != nil {
			b.Fatal(err)
		}
		hist := res[eval.ApproachNPTSN].SwitchLevels
		total, low := 0, 0
		for lvl, n := range hist {
			total += n
			if lvl <= asil.LevelB {
				low += n
			}
		}
		if total > 0 {
			b.ReportMetric(float64(low)/float64(total)*100, "low_asil_switch_%")
		}
	}
}

// benchSensitivity trains one variant per sub-bench on the ADS scenario
// and reports the mean epoch reward — the quantity of the Fig. 5 curves.
func benchSensitivity(b *testing.B, label string, mutate func(*core.Config)) {
	b.Run(label, func(b *testing.B) {
		scen := mustADS(b)
		prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
		cfg := microCfg(1)
		mutate(&cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			pl, err := core.NewPlanner(prob, cfg)
			if err != nil {
				b.Fatal(err)
			}
			report, err := pl.Plan()
			if err != nil {
				b.Fatal(err)
			}
			var mean float64
			for _, e := range report.Epochs {
				mean += e.Reward
			}
			b.ReportMetric(mean/float64(len(report.Epochs)), "epoch_reward")
		}
	})
}

// BenchmarkFig5a_GCNLayers regenerates Fig. 5(a): epoch reward for GCN
// depths 0 / 2 / 4 on ADS.
func BenchmarkFig5a_GCNLayers(b *testing.B) {
	benchSensitivity(b, "GCN-0", func(c *core.Config) { c.GCNLayers = 0; c.ActorLR = 1e-4 })
	benchSensitivity(b, "GCN-2", func(c *core.Config) { c.GCNLayers = 2 })
	benchSensitivity(b, "GCN-4", func(c *core.Config) { c.GCNLayers = 4 })
}

// BenchmarkFig5b_MLPSize regenerates Fig. 5(b): epoch reward for MLP
// hidden sizes 64² / 128² / 256² on ADS.
func BenchmarkFig5b_MLPSize(b *testing.B) {
	for _, h := range []int{64, 128, 256} {
		h := h
		benchSensitivity(b, "MLP-"+itoa(h), func(c *core.Config) { c.MLPHidden = []int{h, h} })
	}
}

// BenchmarkFig5c_PathCountK regenerates Fig. 5(c): epoch reward for K = 8
// / 16 / 32 on ADS.
func BenchmarkFig5c_PathCountK(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		k := k
		benchSensitivity(b, "K-"+itoa(k), func(c *core.Config) { c.K = k })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_SOAGMasking compares exploration with the SOAG's
// degree masks on vs off (§IV-B): without pruning, invalid attempts end
// trajectories early, visible as a higher dead-end rate.
func BenchmarkAblation_SOAGMasking(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"masked", false}, {"unmasked", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			scen := mustADS(b)
			prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
			cfg := microCfg(1)
			cfg.DisableSOAGMasking = mode.disable
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				pl, err := core.NewPlanner(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := pl.Plan()
				if err != nil {
					b.Fatal(err)
				}
				var deadEnds, solutions float64
				for _, e := range report.Epochs {
					deadEnds += float64(e.DeadEnds)
					solutions += float64(e.Solutions)
				}
				b.ReportMetric(deadEnds, "dead_ends")
				b.ReportMetric(solutions, "solutions")
			}
		})
	}
}

// BenchmarkAblation_FailurePruning measures Algorithm 3's superset pruning:
// identical verdicts, fewer NBF simulations.
func BenchmarkAblation_FailurePruning(b *testing.B) {
	// A triple-homed ASIL-B topology at R = 1e-9: maxord 2 and every
	// dual-switch failure survivable, so the full subset lattice is
	// enumerated and the superset cache has something to prune. 4 ES on 4
	// fully meshed switches keeps every degree within the 8-port library.
	gc := graph.New()
	for i := 0; i < 4; i++ {
		gc.AddVertex("", graph.KindEndStation)
	}
	sws := make([]int, 4)
	for i := range sws {
		sws[i] = gc.AddVertex("", graph.KindSwitch)
	}
	for es := 0; es < 4; es++ {
		for _, sw := range sws {
			if err := gc.AddEdge(es, sw, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := range sws {
		for j := i + 1; j < len(sws); j++ {
			if err := gc.AddEdge(sws[i], sws[j], 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	net := tsn.DefaultNetwork()
	flows := tsn.FlowSet{
		{ID: 0, Src: 0, Dsts: []int{1}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64},
		{ID: 1, Src: 2, Dsts: []int{3}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64},
	}
	prob := &core.Problem{
		Connections:     gc,
		Net:             net,
		Flows:           flows,
		NBF:             &nbf.StatelessRecovery{MaxAlternatives: 3},
		ReliabilityGoal: 1e-9,
		Library:         asil.DefaultLibrary(),
		MaxESDegree:     3,
	}
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	for _, sw := range sws {
		for lvl := 0; lvl < 2; lvl++ { // ASIL-B
			if err := state.UpgradeSwitch(sw); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Full switch mesh keeps residuals connected under dual failures.
	for i := range sws {
		for j := i + 1; j < len(sws); j++ {
			if err := state.AddPath(graph.Path{0, sws[i], sws[j], 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for es := 0; es < 4; es++ {
		for k := 0; k < 3; k++ {
			if err := state.AddPath(graph.Path{es, sws[(es+k)%4]}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"pruned", false}, {"unpruned", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			an := &failure.Analyzer{
				Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: 1e-9,
				DisableSupersetPruning: mode.disable,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := an.Analyze(state.Topo, state.Assign, flows)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NBFCalls), "nbf_calls")
			}
		})
	}
}

// BenchmarkAblation_SwitchOnlyReduction compares Algorithm 3's switch-only
// enumeration (justified by Eq. 6) against brute-force enumeration over
// switches AND links.
func BenchmarkAblation_SwitchOnlyReduction(b *testing.B) {
	scen := mustADS(b)
	flows := scenarios.ADSFlows(1)
	prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	for _, sw := range prob.Switches() {
		if err := state.UpgradeSwitch(sw); err != nil { // ASIL-A
			b.Fatal(err)
		}
	}
	for _, es := range prob.EndStations() {
		if err := state.AddPath(graph.Path{es, prob.Switches()[es%4]}); err != nil {
			b.Fatal(err)
		}
		if err := state.AddPath(graph.Path{es, prob.Switches()[(es+1)%4]}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("algorithm3-switch-only", func(b *testing.B) {
		an := &failure.Analyzer{Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: 1e-6}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := an.Analyze(state.Topo, state.Assign, flows)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.NBFCalls), "nbf_calls")
		}
	})
	b.Run("bruteforce-all-components", func(b *testing.B) {
		bf := &failure.BruteForce{Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: 1e-6}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := bf.Analyze(state.Topo, state.Assign, flows)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.NBFCalls), "nbf_calls")
		}
	})
}

// BenchmarkAblation_StatelessNBF compares the cost of one recovery
// simulation for the stateless greedy NBF vs the rebased incremental
// (stateful) mechanism (§II-B).
func BenchmarkAblation_StatelessNBF(b *testing.B) {
	scen := mustADS(b)
	flows := scenarios.ADSFlows(1)
	topo := scen.Connections.Clone() // fully meshed candidate set as topology
	gf := nbf.Failure{Nodes: []int{12}}
	for _, mech := range []nbf.NBF{
		&nbf.StatelessRecovery{MaxAlternatives: 3},
		nbf.NewRebased(&nbf.IncrementalRecovery{MaxAlternatives: 3}),
	} {
		mech := mech
		b.Run(mech.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mech.Recover(topo, gf, scen.Net, flows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PathVsLink contrasts NPTSN's coarse path actions with
// NeuroPlan's individual-link actions on the same budget: the decision
// trajectory length shows up as solutions found per training run.
func BenchmarkAblation_PathVsLink(b *testing.B) {
	scen := mustADS(b)
	prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	cfg := microCfg(1)
	b.Run("path-actions-nptsn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Seed = int64(i + 1)
			pl, err := core.NewPlanner(prob, c)
			if err != nil {
				b.Fatal(err)
			}
			report, err := pl.Plan()
			if err != nil {
				b.Fatal(err)
			}
			var solutions float64
			for _, e := range report.Epochs {
				solutions += float64(e.Solutions)
			}
			b.ReportMetric(solutions, "solutions")
		}
	})
	b.Run("link-actions-neuroplan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Seed = int64(i + 1)
			np, err := baselines.NewNeuroPlan(c)
			if err != nil {
				b.Fatal(err)
			}
			_, report, err := np.Plan(prob)
			if err != nil {
				b.Fatal(err)
			}
			var solutions float64
			for _, e := range report.Epochs {
				solutions += float64(e.Solutions)
			}
			b.ReportMetric(solutions, "solutions")
		}
	})
}

// BenchmarkScheduler measures the TT scheduler on an ADS-sized network —
// the inner loop of every NBF simulation.
func BenchmarkScheduler(b *testing.B) {
	scen := mustADS(b)
	flows := scenarios.ADSFlows(1)
	topo := scen.Connections.Clone()
	sched := tsn.Scheduler{MaxAlternatives: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sched.Schedule(topo, scen.Net, flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyForward times the pure inference path of the Table II
// policy (GCN-2 trunk + 256x256 actor MLP + masked softmax) on an
// ADS-sized observation — the per-step cost every exploration worker pays.
// "single" evaluates one observation at a time; "batched" evaluates the
// same observations as one row-stacked batch (per-observation cost
// reported), the shape the planner's batched exploration uses.
func BenchmarkPolicyForward(b *testing.B) {
	scen := mustADS(b)
	prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig() // Table II as-is
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		b.Fatal(err)
	}
	enc := core.NewEncoder(prob, cfg.K)
	nets, err := core.NewNets(rand.New(rand.NewSource(1)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	set := soag.Generate(state, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 6}}, rand.New(rand.NewSource(1)))
	obs := enc.Encode(state, set)
	b.Run("single", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nets.ForwardPolicy(obs)
		}
	})
	b.Run("batched", func(b *testing.B) {
		// 8 workers' observations per barrier round, both heads evaluated
		// (the shape planner exploration submits); cost is per observation.
		const batch = 8
		obsBatch := make([]*core.Obs, batch)
		logits := make([][]float64, batch)
		for i := range obsBatch {
			obsBatch[i] = obs
			logits[i] = make([]float64, soag.ActionSpaceSize())
		}
		values := make([]float64, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			nets.ForwardPolicyValueBatch(obsBatch, logits, values)
		}
	})
}

// orionAnalysisState builds the ORION-scale dual-homed topology the
// failure-analysis benchmarks analyze: all switches upgraded, backbone
// rung, every ES dual-homed on its least-loaded candidate switches.
func orionAnalysisState(b *testing.B) (*core.TSSDN, *core.Problem, tsn.FlowSet) {
	b.Helper()
	scen := mustORION(b)
	flows := scen.RandomFlows(20, 1)
	prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
	if err := prob.Validate(); err != nil {
		b.Fatal(err)
	}
	state := core.NewTSSDN(prob)
	sws := prob.Switches()
	for _, sw := range sws {
		if err := state.UpgradeSwitch(sw); err != nil {
			b.Fatal(err)
		}
	}
	// Ring the switches (the original backbone edges exist in Gc) so
	// residual networks stay connected.
	for i := range sws {
		if err := state.AddPath(graph.Path{sws[i], sws[(i+1)%len(sws)]}); err != nil {
			b.Fatal(err)
		}
	}
	// Dual-home every ES on its two least-loaded candidate switches.
	for _, es := range prob.EndStations() {
		var cands []int
		for _, n := range prob.Connections.Neighbors(es) {
			if prob.Connections.Kind(n) == graph.KindSwitch {
				cands = append(cands, n)
			}
		}
		for hook := 0; hook < 2; hook++ {
			best, bestDeg := -1, 1<<30
			for _, sw := range cands {
				if state.Topo.HasEdge(es, sw) {
					continue
				}
				if d := state.Topo.Degree(sw); d < bestDeg && d < prob.Library.MaxSwitchDegree() {
					best, bestDeg = sw, d
				}
			}
			if best == -1 {
				b.Fatal("no attachable switch for end station")
			}
			if err := state.AddPath(graph.Path{es, best}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return state, prob, flows
}

// BenchmarkFailureAnalysisORION measures one full Algorithm 3 run on an
// ORION-scale dual-homed topology — the dominant cost of training (§IV-C).
func BenchmarkFailureAnalysisORION(b *testing.B) {
	state, prob, flows := orionAnalysisState(b)
	an := &failure.Analyzer{Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: 1e-6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.Analyze(state.Topo, state.Assign, flows)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NBFCalls), "nbf_calls")
	}
}

// BenchmarkFailureAnalysisORIONEngine measures the concurrent, memoized
// analysis engine on the same ORION state: worker-pool fan-out on a cold
// cache, and the warm-cache path that answers every scenario without
// touching the NBF (the regime a planner hits when re-analyzing states
// reached repeatedly across exploration steps).
func BenchmarkFailureAnalysisORIONEngine(b *testing.B) {
	state, prob, flows := orionAnalysisState(b)
	for _, bc := range []struct {
		name    string
		workers int
		warm    bool
	}{
		{"workers-1-cold", 1, false},
		{"workers-4-cold", 4, false},
		{"workers-1-warm", 1, true},
		{"workers-4-warm", 4, true},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			an := &failure.Analyzer{
				Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: 1e-6,
				Workers: bc.workers,
			}
			if bc.warm {
				an.Cache = failure.NewCache(1 << 15)
				if _, err := an.Analyze(state.Topo, state.Assign, flows); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !bc.warm {
					// Cold: fresh cache per iteration so every scenario
					// pays for its simulation.
					b.StopTimer()
					an.Cache = failure.NewCache(1 << 15)
					b.StartTimer()
				}
				res, err := an.Analyze(state.Topo, state.Assign, flows)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NBFCalls), "nbf_calls")
				b.ReportMetric(res.Occupancy, "occupancy")
			}
		})
	}
}

// BenchmarkAblation_GCNvsGAT compares the GCN trunk against the GAT
// alternative §IV-C discusses (and rejects partly for its cost): same
// budget, compare wall-clock per op and epoch reward.
func BenchmarkAblation_GCNvsGAT(b *testing.B) {
	for _, mode := range []struct {
		name string
		gat  bool
	}{{"gcn", false}, {"gat", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			scen := mustADS(b)
			prob := scen.Problem(scenarios.ADSFlows(1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
			cfg := microCfg(1)
			cfg.UseGAT = mode.gat
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				pl, err := core.NewPlanner(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := pl.Plan()
				if err != nil {
					b.Fatal(err)
				}
				var mean float64
				for _, e := range report.Epochs {
					mean += e.Reward
				}
				b.ReportMetric(mean/float64(len(report.Epochs)), "epoch_reward")
			}
		})
	}
}

// BenchmarkAblation_MaskedVsExhaustivePaths compares the SOAG's default
// masked-K action generation with the §IV-B alternative that enumerates
// paths until K valid ones are found (slower generation, same coverage).
func BenchmarkAblation_MaskedVsExhaustivePaths(b *testing.B) {
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"masked-k", false}, {"exhaustive", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			scen := mustORION(b)
			prob := scen.Problem(scen.RandomFlows(10, 1), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
			cfg := microCfg(1)
			cfg.ExhaustivePathGeneration = mode.exhaustive
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				pl, err := core.NewPlanner(prob, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report, err := pl.Plan()
				if err != nil {
					b.Fatal(err)
				}
				var solutions float64
				for _, e := range report.Epochs {
					solutions += float64(e.Solutions)
				}
				b.ReportMetric(solutions, "solutions")
			}
		})
	}
}

// deltaBenchSetup plans a small base problem once and derives a
// single-flow-removal delta from it, shared by the warm/cold delta benches.
var deltaBench struct {
	once    sync.Once
	err     error
	derived *core.Problem
	base    *core.Solution
}

func deltaBenchInit(b *testing.B) (*core.Problem, *core.Solution) {
	b.Helper()
	deltaBench.once.Do(func() {
		s, err := scenarios.Family("mesh", 4, 2)
		if err != nil {
			deltaBench.err = err
			return
		}
		reg := nbf.NewRegistry()
		recovery, err := reg.New("stateless-greedy")
		if err != nil {
			deltaBench.err = err
			return
		}
		prob := s.Problem(s.RandomFlows(3, 1), recovery, 1e-6)
		pl, err := core.NewPlanner(prob, microCfg(1))
		if err != nil {
			deltaBench.err = err
			return
		}
		report, err := pl.Plan()
		if err != nil {
			deltaBench.err = err
			return
		}
		if report.Best == nil {
			deltaBench.err = fmt.Errorf("delta bench: base problem did not solve")
			return
		}
		// Single-flow delta through the real spec-diff path.
		baseSpec := serialize.EncodeProblem(prob, "stateless-greedy")
		derivedSpec, err := serialize.ApplyDelta(baseSpec, serialize.DeltaJSON{RemoveFlows: []int{0}})
		if err != nil {
			deltaBench.err = err
			return
		}
		derived, err := serialize.DecodeProblem(derivedSpec, reg)
		if err != nil {
			deltaBench.err = err
			return
		}
		deltaBench.derived, deltaBench.base = derived, report.Best
	})
	if deltaBench.err != nil {
		b.Fatal(deltaBench.err)
	}
	return deltaBench.derived, deltaBench.base
}

// BenchmarkDeltaColdStart plans a single-flow delta of a solved base from
// scratch — the price of ignoring the base plan.
func BenchmarkDeltaColdStart(b *testing.B) {
	derived, _ := deltaBenchInit(b)
	b.ResetTimer()
	var steps float64
	for i := 0; i < b.N; i++ {
		pl, err := core.NewPlanner(derived, microCfg(1))
		if err != nil {
			b.Fatal(err)
		}
		report, err := pl.Plan()
		if err != nil {
			b.Fatal(err)
		}
		if report.Best == nil {
			b.Fatal("cold run did not solve")
		}
		for _, e := range report.Epochs {
			steps += float64(e.EnvSteps)
		}
	}
	b.ReportMetric(steps/float64(b.N), "envsteps/op")
}

// BenchmarkZooInference answers the same delta through the policy-zoo
// fast path: a greedy inference-only rollout of the policy pretrained on
// the base instance — no PPO, no gradients. Compare envsteps/op and ns/op
// against BenchmarkDeltaColdStart for the amortization the zoo buys.
func BenchmarkZooInference(b *testing.B) {
	derived, _ := deltaBenchInit(b)
	weights := zooBenchWeights(b)
	ctx := context.Background()
	b.ResetTimer()
	var steps float64
	for i := 0; i < b.N; i++ {
		sol, stats, err := zoo.Rollout(ctx, derived, microCfg(1), weights)
		if err != nil {
			b.Fatal(err)
		}
		if sol == nil {
			b.Fatal("zoo rollout did not solve")
		}
		steps += float64(stats.EnvSteps)
	}
	b.ReportMetric(steps/float64(b.N), "envsteps/op")
}

var zooBench struct {
	once    sync.Once
	err     error
	weights [][]float64
}

// zooBenchWeights pretrains one policy for the delta instance's geometry,
// exactly as an nptsn-pretrain sweep covering this grid point would have —
// the training cost is paid once at init and amortized over every serve.
func zooBenchWeights(b *testing.B) [][]float64 {
	b.Helper()
	derived, _ := deltaBenchInit(b)
	zooBench.once.Do(func() {
		pl, err := core.NewPlanner(derived, microCfg(1))
		if err != nil {
			zooBench.err = err
			return
		}
		report, err := pl.Plan()
		if err != nil {
			zooBench.err = err
			return
		}
		if report.Best == nil {
			zooBench.err = fmt.Errorf("zoo bench: pretraining did not solve")
			return
		}
		zooBench.weights = report.FinalWeights
	})
	if zooBench.err != nil {
		b.Fatal(zooBench.err)
	}
	return zooBench.weights
}

// BenchmarkDeltaWarmStart plans the same delta warm-started from the base
// plan; the surviving seed certifies at init, so no training runs at all.
func BenchmarkDeltaWarmStart(b *testing.B) {
	derived, base := deltaBenchInit(b)
	b.ResetTimer()
	var steps float64
	for i := 0; i < b.N; i++ {
		cfg := microCfg(1)
		cfg.WarmStart = base
		pl, err := core.NewPlanner(derived, cfg)
		if err != nil {
			b.Fatal(err)
		}
		report, err := pl.Plan()
		if err != nil {
			b.Fatal(err)
		}
		if report.Best == nil {
			b.Fatal("warm run did not solve")
		}
		for _, e := range report.Epochs {
			steps += float64(e.EnvSteps)
		}
	}
	b.ReportMetric(steps/float64(b.N), "envsteps/op")
}
