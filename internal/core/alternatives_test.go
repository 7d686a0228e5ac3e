package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/tsn"
)

func TestPerFlowEncodingAlternative(t *testing.T) {
	prob := tinyProblem(t)
	enc := NewEncoderWithOptions(prob, 4, true)
	// F = 1 + |Vc| + |FS| + K = 1 + 6 + 3 + 4.
	if got := enc.FeatureDim(); got != 14 {
		t.Fatalf("FeatureDim = %d, want 14", got)
	}
	s := NewTSSDN(prob)
	obs := enc.Encode(s, nil)
	// Flow 0 is 0->1: column base+0 marks source 1, destination 2.
	base := 1 + 6
	if obs.Feat.At(0, base) != 1 {
		t.Fatal("per-flow source mark missing")
	}
	if obs.Feat.At(1, base) != 2 {
		t.Fatal("per-flow destination mark missing")
	}
	if obs.Feat.At(4, base) != 0 {
		t.Fatal("switch row must be zero in flow columns")
	}
}

func TestPerFlowEncodingPlannerSmoke(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.PerFlowEncoding = true
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
}

func TestSolutionBonusAddsToReward(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.SolutionBonus = 2.5
	envBonus, err := NewEnv(prob, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgPlain := tinyConfig()
	envPlain, err := NewEnv(prob, cfgPlain, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drive both environments with the identical greedy policy until a
	// solution; the final rewards must differ by exactly the bonus.
	drive := func(env *Env) float64 {
		upgrades := map[int]int{}
		for step := 0; step < 200; step++ {
			set := env.Actions()
			choice := -1
			for i := 0; i < 2; i++ {
				if set.Mask[i] && upgrades[i] < 3 {
					choice = i
					break
				}
			}
			if choice == -1 {
				for i := 2; i < set.Size(); i++ {
					if set.Mask[i] {
						choice = i
						break
					}
				}
			}
			if choice == -1 {
				for i := 0; i < set.Size(); i++ {
					if set.Mask[i] {
						choice = i
						break
					}
				}
			}
			if choice < 2 {
				upgrades[choice]++
			}
			r, outcome, err := env.Step(choice)
			if err != nil {
				t.Fatal(err)
			}
			if outcome == OutcomeSolved {
				return r
			}
			if outcome == OutcomeDeadEnd {
				upgrades = map[int]int{}
			}
		}
		t.Fatal("no solution reached")
		return 0
	}
	rBonus := drive(envBonus)
	rPlain := drive(envPlain)
	if math.Abs((rBonus-rPlain)-2.5) > 1e-12 {
		t.Fatalf("bonus delta = %v, want 2.5", rBonus-rPlain)
	}
}

func TestGATTrunkForwardBackward(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.UseGAT = true
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(4)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTSSDN(prob)
	if err := s.UpgradeSwitch(4); err != nil {
		t.Fatal(err)
	}
	set := soag.Generate(s, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 1}}, rand.New(rand.NewSource(1)))
	obs := enc.Encode(s, set)
	logits := nets.ForwardPolicy(obs)
	if len(logits) != soag.ActionSpaceSize() {
		t.Fatalf("logits len %d", len(logits))
	}
	// Gradient spot check against finite differences through GAT + MLP.
	const target = 2
	loss := func() float64 { return nets.ForwardPolicy(obs)[target] }
	ps := nets.PolicyParams()
	nn.ZeroGrads(ps)
	nets.LoadBatch([]rl.Observation{obs})
	l := nets.ForwardPolicyBatch()
	dLogits := nn.NewMatrix(1, l.Cols)
	dLogits.Data[target] = 1
	nets.BackwardPolicyBatch(dLogits)
	const eps = 1e-6
	for pi, p := range ps {
		for j := 0; j < len(p.Value.Data); j += 13 {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			up := loss()
			p.Value.Data[j] = orig - eps
			down := loss()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(p.Grad.Data[j]-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("GAT param %d (%s) elem %d: analytic %v numeric %v", pi, p.Name, j, p.Grad.Data[j], numeric)
			}
		}
	}
}

func TestGATPlannerSmoke(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.UseGAT = true
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Epochs) != cfg.MaxEpoch {
		t.Fatalf("epochs = %d", len(report.Epochs))
	}
}

func TestFlowLevelRedundancyProblemWiring(t *testing.T) {
	prob := tinyProblem(t)
	prob.FlowLevelRedundancy = true
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(prob, tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// With flow-level redundancy and an ASIL-D ES level at R = 1e-6, ES
	// failures are safe faults, so the environment still starts normally.
	if env.Solved() {
		t.Fatal("unsolved problem reported solved")
	}
	// A stricter goal makes end-station failures non-safe; a dual-homed
	// topology can then never satisfy the analyzer (single ES failures
	// kill their own flows), so even the greedy driver must keep failing.
	strict := tinyProblem(t)
	strict.FlowLevelRedundancy = true
	strict.ReliabilityGoal = 9e-7
	s := NewTSSDN(strict)
	if err := s.UpgradeSwitch(4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // ASIL-D
		if err := s.UpgradeSwitch(4); err != nil {
			t.Fatal(err)
		}
	}
	for es := 0; es < 4; es++ {
		if err := s.AddPath([]int{es, 4}); err != nil {
			t.Fatal(err)
		}
	}
	sol := &Solution{Topology: s.Topo, Assignment: s.Assign}
	if err := VerifySolution(strict, sol); err == nil {
		t.Fatal("flow-level mode must reject networks with ES single points of failure")
	}
}

func TestExhaustiveValidPathsAlternative(t *testing.T) {
	prob := tinyProblem(t)
	prob.MaxESDegree = 1
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	soag, err := NewSOAG(prob, 4)
	if err != nil {
		t.Fatal(err)
	}
	soag.ExhaustiveValidPaths = true
	s := NewTSSDN(prob)
	if err := s.UpgradeSwitch(4); err != nil {
		t.Fatal(err)
	}
	if err := s.UpgradeSwitch(5); err != nil {
		t.Fatal(err)
	}
	// ES 0's single port is used; exhaustive mode must return only valid
	// (degree-respecting) paths with masks all one — here none exist for
	// the pair (0,1) via new ES-0 ports except reusing 0-4.
	if err := s.AddPath([]int{0, 4, 1}); err != nil {
		t.Fatal(err)
	}
	set := soag.Generate(s, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 1}}, rand.New(rand.NewSource(1)))
	for i := 2; i < set.Size(); i++ {
		if !set.Mask[i] {
			continue
		}
		if !soag.pathRespectsDegrees(s, set.Actions[i].Path) {
			t.Fatalf("exhaustive mode emitted an invalid path %v", set.Actions[i].Path)
		}
	}
	// Planner smoke with the alternative enabled.
	cfg := tinyConfig()
	cfg.ExhaustivePathGeneration = true
	pl, err := NewPlanner(tinyProblem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightCheckpointRoundTrip(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	a, err := NewNets(rand.New(rand.NewSource(1)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNets(rand.New(rand.NewSource(2)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	weights := a.ExportWeights()
	if err := b.ImportWeights(weights); err != nil {
		t.Fatal(err)
	}
	obs := enc.Encode(NewTSSDN(prob), nil)
	// Copy a's logits: ForwardPolicy returns a borrowed scratch slice and
	// the snapshot-independence check below forwards through a again.
	la, lb := append([]float64(nil), a.ForwardPolicy(obs)...), b.ForwardPolicy(obs)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("imported weights do not reproduce logits")
		}
	}
	// Snapshot independence: mutating the snapshot must not affect a.
	weights[0][0] += 1
	la2 := a.ForwardPolicy(obs)
	for i := range la {
		if la[i] != la2[i] {
			t.Fatal("ExportWeights aliased network storage")
		}
	}
	// Shape mismatch rejected.
	if err := b.ImportWeights(weights[:1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	bad := a.ExportWeights()
	bad[0] = bad[0][:1]
	if err := b.ImportWeights(bad); err == nil {
		t.Fatal("mis-sized tensor accepted")
	}
}

func TestPlannerWarmStart(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if r1.FinalWeights == nil {
		t.Fatal("report missing final weights")
	}
	warm := cfg
	warm.InitialWeights = r1.FinalWeights
	pl2, err := NewPlanner(prob, warm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pl2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Epochs) != cfg.MaxEpoch {
		t.Fatal("warm-started run did not train")
	}
	// A mismatched snapshot must be rejected.
	bad := cfg
	bad.InitialWeights = [][]float64{{1, 2, 3}}
	pl3, err := NewPlanner(prob, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl3.Plan(); err == nil {
		t.Fatal("mismatched warm start accepted")
	}
}
