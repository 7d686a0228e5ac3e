package core

import (
	"math"
	"math/rand"
	"reflect"
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
	env, err := NewEnvWithCache(prob, tinyConfig(), 1, nil)
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

// TestPlannerWarmStart carries a finished run into a new one both ways a
// program can: its plan seeds a warm start, which returns a plan no dearer
// without training, and its last checkpoint resumes under a longer horizon
// and trains only the added epochs. A checkpoint whose weights do not fit
// the networks is rejected.
func TestPlannerWarmStart(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	var last *Checkpoint
	cfg.CheckpointEvery = 1
	cfg.CheckpointFunc = func(ck *Checkpoint) error { last = ck; return nil }
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best == nil || last == nil || last.Epoch != cfg.MaxEpoch {
		t.Fatalf("cold run: best %v, last checkpoint %+v", r1.Best, last)
	}

	warm := tinyConfig()
	warm.WarmStart = r1.Best
	pl2, err := NewPlanner(prob, warm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pl2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Epochs) != 0 || r2.Best == nil || r2.Best.Cost > r1.Best.Cost {
		t.Fatalf("warm start from the cold plan (cost %v): %d epochs, best %v", r1.Best.Cost, len(r2.Epochs), r2.Best)
	}

	more := tinyConfig()
	more.MaxEpoch = cfg.MaxEpoch + 1
	more.Resume = last
	pl3, err := NewPlanner(prob, more)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := pl3.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Epochs) != more.MaxEpoch || !reflect.DeepEqual(r3.Epochs[:cfg.MaxEpoch], r1.Epochs) {
		t.Fatalf("resumed run: %d epochs, want %d beginning with the cold run's", len(r3.Epochs), more.MaxEpoch)
	}

	bad := *last
	bad.Weights = [][]float64{{1, 2, 3}}
	more.Resume = &bad
	pl4, err := NewPlanner(prob, more)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl4.Plan(); err == nil {
		t.Fatal("checkpoint with mismatched weights accepted")
	}
}
