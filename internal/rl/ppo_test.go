package rl

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
)

// testAC is a minimal actor-critic over 1×d nn.Matrix observations, used
// to exercise PPO end to end on a toy problem. Its batch is the loaded
// observations stacked into one matrix.
type testAC struct {
	actor  *nn.MLP
	critic *nn.MLP
	batch  *nn.Matrix
}

var _ ActorCritic = (*testAC)(nil)

func newTestAC(rng *rand.Rand, obsDim, nActions int) *testAC {
	return &testAC{
		actor:  nn.NewMLP(rng, obsDim, []int{16}, nActions, nn.Tanh),
		critic: nn.NewMLP(rng, obsDim, []int{16}, 1, nn.Tanh),
	}
}

// policy returns the logits of one observation (a copy).
func (t *testAC) policy(obs Observation) []float64 {
	return append([]float64(nil), t.actor.Forward(obs.(*nn.Matrix)).Data...)
}

// value returns the value estimate of one observation.
func (t *testAC) value(obs Observation) float64 {
	return t.critic.Forward(obs.(*nn.Matrix)).Data[0]
}

func (t *testAC) LoadBatch(obs []Observation) {
	if len(obs) == 0 {
		t.batch = nil
		return
	}
	d := obs[0].(*nn.Matrix).Cols
	t.batch = nn.NewMatrix(len(obs), d)
	for i, o := range obs {
		copy(t.batch.Data[i*d:(i+1)*d], o.(*nn.Matrix).Data)
	}
}

func (t *testAC) ForwardPolicyBatch() *nn.Matrix { return t.actor.Forward(t.batch) }

func (t *testAC) BackwardPolicyBatch(dLogits *nn.Matrix) { t.actor.Backward(dLogits, 0) }

func (t *testAC) PolicyParams() []nn.Param { return t.actor.Params() }

func (t *testAC) ForwardValueBatch() *nn.Matrix { return t.critic.Forward(t.batch) }

func (t *testAC) BackwardValueBatch(dV *nn.Matrix) { t.critic.Backward(dV, 0) }

func (t *testAC) ValueParams() []nn.Param { return t.critic.Params() }

// sampleAction draws an action from the masked policy and returns the
// action with its log-probability.
func sampleAction(rng *rand.Rand, ac *testAC, obs Observation, mask []bool) (int, float64) {
	logits := ac.policy(obs)
	masked := nn.MaskLogits(logits, mask)
	probs := nn.Softmax(masked)
	a := nn.SampleCategorical(rng, probs)
	return a, nn.LogSoftmax(masked)[a]
}

func TestPPOLearnsBandit(t *testing.T) {
	// Three-armed bandit with rewards 0 / 0.5 / 1: PPO must concentrate
	// probability on arm 2.
	rng := rand.New(rand.NewSource(42))
	ac := newTestAC(rng, 1, 3)
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 0.01, CriticLR: 0.01,
		TrainPiIters: 10, TrainVIters: 10, TargetKL: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := []bool{true, true, true}
	rewards := []float64{0, 0.5, 1}

	for epoch := 0; epoch < 25; epoch++ {
		buf := NewBuffer(0.99, 0.97)
		for i := 0; i < 64; i++ {
			a, logp := sampleAction(rng, ac, obs, mask)
			v := ac.value(obs)
			buf.Store(Step{Obs: obs, Action: a, Mask: mask, LogP: logp, Value: v, Reward: rewards[a]})
			buf.FinishPath(0)
		}
		if _, err := ppo.Update(ac, buf); err != nil {
			t.Fatal(err)
		}
	}
	probs := nn.Softmax(nn.MaskLogits(ac.policy(obs), mask))
	if probs[2] < 0.8 {
		t.Fatalf("policy did not learn the best arm: %v", probs)
	}
	// Critic should approach the expected value of the learned policy (~1).
	if v := ac.value(obs); v < 0.5 {
		t.Fatalf("critic value %v did not track the return", v)
	}
}

func TestPPOMaskedActionStaysMasked(t *testing.T) {
	// Arm 2 pays the most but is masked out; the policy must settle on the
	// best unmasked arm (1) and never sample 2.
	rng := rand.New(rand.NewSource(7))
	ac := newTestAC(rng, 1, 3)
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 0.01, CriticLR: 0.01,
		TrainPiIters: 10, TrainVIters: 5, TargetKL: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := []bool{true, true, false}
	rewards := []float64{0, 0.5, 10}

	for epoch := 0; epoch < 15; epoch++ {
		buf := NewBuffer(0.99, 0.97)
		for i := 0; i < 32; i++ {
			a, logp := sampleAction(rng, ac, obs, mask)
			if a == 2 {
				t.Fatal("masked action sampled")
			}
			v := ac.value(obs)
			buf.Store(Step{Obs: obs, Action: a, Mask: mask, LogP: logp, Value: v, Reward: rewards[a]})
			buf.FinishPath(0)
		}
		if _, err := ppo.Update(ac, buf); err != nil {
			t.Fatal(err)
		}
	}
	probs := nn.Softmax(nn.MaskLogits(ac.policy(obs), mask))
	if probs[2] != 0 {
		t.Fatalf("masked action has probability %v", probs[2])
	}
	if probs[1] < 0.7 {
		t.Fatalf("policy did not prefer the best unmasked arm: %v", probs)
	}
}

func TestPPOUpdateStatsAndEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ac := newTestAC(rng, 1, 2)
	// Huge LR + tiny target KL forces early stopping.
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 0.5, CriticLR: 0.01,
		TrainPiIters: 50, TrainVIters: 2, TargetKL: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := []bool{true, true}
	buf := NewBuffer(0.99, 0.97)
	for i := 0; i < 16; i++ {
		a, logp := sampleAction(rng, ac, obs, mask)
		buf.Store(Step{Obs: obs, Action: a, Mask: mask, LogP: logp, Value: 0, Reward: float64(a)})
		buf.FinishPath(0)
	}
	stats, err := ppo.Update(ac, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyStopped || stats.PiIters >= 50 {
		t.Fatalf("expected early stop, got %+v", stats)
	}
	if stats.Entropy <= 0 {
		t.Fatalf("entropy should be positive early in training: %+v", stats)
	}
}

func TestPPOConfigValidation(t *testing.T) {
	bad := []PPOConfig{
		{ClipRatio: 0, ActorLR: 1e-3, CriticLR: 1e-3, TrainPiIters: 1, TrainVIters: 1},
		{ClipRatio: 0.2, ActorLR: 0, CriticLR: 1e-3, TrainPiIters: 1, TrainVIters: 1},
		{ClipRatio: 0.2, ActorLR: 1e-3, CriticLR: 1e-3, TrainPiIters: 0, TrainVIters: 1},
		{ClipRatio: 1.5, ActorLR: 1e-3, CriticLR: 1e-3, TrainPiIters: 1, TrainVIters: 1},
	}
	for i, cfg := range bad {
		if _, err := NewPPO(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := paperPPO.Validate(); err != nil {
		t.Errorf("Table II config invalid: %v", err)
	}
}

// paperPPO is Table II's update (clip ratio 0.2, actor LR 3e-4, critic LR
// 1e-3) with SpinningUp's 80/80 iterations and 0.01 target KL.
var paperPPO = PPOConfig{ClipRatio: 0.2, ActorLR: 3e-4, CriticLR: 1e-3, TrainPiIters: 80, TrainVIters: 80, TargetKL: 0.01}

func TestPPOUpdateOnEmptyBufferFails(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ac := newTestAC(rng, 1, 2)
	ppo, err := NewPPO(paperPPO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppo.Update(ac, NewBuffer(0.99, 0.97)); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func TestPPOClipBoundsRatioInfluence(t *testing.T) {
	// With a strongly off-policy batch (logp_old very high), the clipped
	// objective must not blow up: the policy loss stays finite and bounded.
	rng := rand.New(rand.NewSource(9))
	ac := newTestAC(rng, 1, 2)
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 1e-3, CriticLR: 1e-3,
		TrainPiIters: 1, TrainVIters: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := []bool{true, true}
	buf := NewBuffer(0.99, 0.97)
	for i := 0; i < 8; i++ {
		buf.Store(Step{Obs: obs, Action: i % 2, Mask: mask, LogP: -20, Value: 0, Reward: 1})
		buf.FinishPath(0)
	}
	stats, err := ppo.Update(ac, buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(stats.PolicyLoss) || math.IsInf(stats.PolicyLoss, 0) {
		t.Fatalf("policy loss unbounded: %+v", stats)
	}
	if stats.ClipFraction == 0 {
		t.Fatalf("expected clipping with off-policy data: %+v", stats)
	}
}

// Regression: a Step whose stored Mask disables its own Action means the
// exploration data is corrupt (the masked logit is -inf, and its gradient
// would push probability onto a forbidden action). Update must reject the
// batch instead of training on it.
func TestPPOUpdateRejectsMaskedStoredAction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ac := newTestAC(rng, 1, 2)
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 1e-3, CriticLR: 1e-3,
		TrainPiIters: 1, TrainVIters: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := nn.FromSlice(1, 1, []float64{1})
	buf := NewBuffer(0.99, 0.97)
	buf.Store(Step{Obs: obs, Action: 0, Mask: []bool{true, true}, LogP: -0.7, Reward: 1})
	buf.FinishPath(0)
	// Corrupt step: mask forbids the very action it claims was taken.
	buf.Store(Step{Obs: obs, Action: 1, Mask: []bool{true, false}, LogP: -0.7, Reward: 1})
	buf.FinishPath(0)
	if _, err := ppo.Update(ac, buf); err == nil {
		t.Fatal("Update accepted a stored action that its own mask disables")
	} else if !strings.Contains(err.Error(), "mask disables") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
