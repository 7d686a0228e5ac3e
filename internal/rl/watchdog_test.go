package rl

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
)

// nanAC wraps testAC and injects NaN into the first `poison` batched
// policy gradients, deterministically driving Adam to non-finite weights so
// the divergence watchdog has something to catch.
type nanAC struct {
	*testAC
	poison int
}

func (a *nanAC) BackwardPolicyBatch(d *nn.Matrix) {
	if a.poison > 0 {
		a.poison--
		d = nn.NewMatrix(d.Rows, d.Cols)
		for i := range d.Data {
			d.Data[i] = math.NaN()
		}
	}
	a.testAC.BackwardPolicyBatch(d)
}

// fillBanditBuffer collects one epoch of the 3-armed bandit used by the PPO
// tests, so updates have realistic finite data.
func fillBanditBuffer(rng *rand.Rand, ac *testAC, n, nActions int) *Buffer {
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := make([]bool, nActions)
	for i := range mask {
		mask[i] = true
	}
	buf := NewBuffer(0.99, 0.97)
	for i := 0; i < n; i++ {
		a, logp := sampleAction(rng, ac, obs, mask)
		v := ac.value(obs)
		buf.Store(Step{Obs: obs, Action: a, Mask: mask, LogP: logp, Value: v, Reward: float64(a) / 2})
		buf.FinishPath(0)
	}
	return buf
}

func newWatchdogPPO(t *testing.T) *PPO {
	t.Helper()
	ppo, err := NewPPO(PPOConfig{
		ClipRatio: 0.2, ActorLR: 0.01, CriticLR: 0.02,
		TrainPiIters: 5, TrainVIters: 5, TargetKL: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ppo
}

func TestWatchdogRecoversFromTransientNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ac := &nanAC{testAC: newTestAC(rng, 1, 3), poison: 1}
	ppo := newWatchdogPPO(t)
	buf := fillBanditBuffer(rng, ac.testAC, 32, 3)

	stats, info, err := ppo.UpdateWithRecovery(ac, buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", info.Rollbacks)
	}
	if info.ActorLR != 0.005 || info.CriticLR != 0.01 {
		t.Fatalf("learning rates not halved once: actor %v critic %v", info.ActorLR, info.CriticLR)
	}
	if a, c := ppo.LearningRates(); a != info.ActorLR || c != info.CriticLR {
		t.Fatalf("PPO learning rates %v/%v disagree with RecoveryInfo %v/%v", a, c, info.ActorLR, info.CriticLR)
	}
	if !statsFinite(stats) {
		t.Fatalf("recovered update produced non-finite stats: %+v", stats)
	}
	params := append(ac.PolicyParams(), ac.ValueParams()...)
	if !paramsFinite(params) {
		t.Fatal("weights not finite after recovery")
	}
}

func TestWatchdogExhaustsRetryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ac := &nanAC{testAC: newTestAC(rng, 1, 3), poison: 1 << 30} // every attempt diverges
	ppo := newWatchdogPPO(t)
	buf := fillBanditBuffer(rng, ac.testAC, 32, 3)

	before := nn.ExportWeights(append(ac.PolicyParams(), ac.ValueParams()...))
	_, info, err := ppo.UpdateWithRecovery(ac, buf, 2)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if info.Rollbacks != 2 {
		t.Fatalf("Rollbacks = %d, want 2", info.Rollbacks)
	}
	// The network must be left in its last good (finite) state, not the
	// diverged one.
	after := nn.ExportWeights(append(ac.PolicyParams(), ac.ValueParams()...))
	if !reflect.DeepEqual(before, after) {
		t.Fatal("weights were not rolled back to the pre-update snapshot")
	}
	if !paramsFinite(append(ac.PolicyParams(), ac.ValueParams()...)) {
		t.Fatal("weights not finite after exhausted retries")
	}
}

func TestWatchdogZeroRetriesStillRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ac := &nanAC{testAC: newTestAC(rng, 1, 3), poison: 1}
	ppo := newWatchdogPPO(t)
	buf := fillBanditBuffer(rng, ac.testAC, 16, 3)

	_, info, err := ppo.UpdateWithRecovery(ac, buf, 0)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if info.Rollbacks != 0 {
		t.Fatalf("Rollbacks = %d, want 0 (no retry budget)", info.Rollbacks)
	}
	if !paramsFinite(append(ac.PolicyParams(), ac.ValueParams()...)) {
		t.Fatal("weights not finite after rollback")
	}
	// Without a retry there is no halving either.
	if a, c := ppo.LearningRates(); a != 0.01 || c != 0.02 {
		t.Fatalf("learning rates changed without a retry: %v/%v", a, c)
	}
}

func TestWatchdogRejectsNegativeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ac := newTestAC(rng, 1, 3)
	ppo := newWatchdogPPO(t)
	buf := fillBanditBuffer(rng, ac, 8, 3)
	if _, _, err := ppo.UpdateWithRecovery(ac, buf, -1); err == nil {
		t.Fatal("negative retry budget accepted")
	}
}

func TestWatchdogRejectsPoisonedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ac := newTestAC(rng, 1, 3)
	ppo := newWatchdogPPO(t)
	obs := nn.FromSlice(1, 1, []float64{1})
	mask := []bool{true, true, true}
	buf := NewBuffer(0.99, 0.97)
	buf.Store(Step{Obs: obs, Action: 0, Mask: mask, LogP: math.NaN(), Value: 0, Reward: 1})
	buf.FinishPath(0)

	_, info, err := ppo.UpdateWithRecovery(ac, buf, 3)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if info.Rollbacks != 0 {
		t.Fatalf("poisoned input should fail before any update, got %d rollbacks", info.Rollbacks)
	}
}

func TestPPOStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ac := newTestAC(rng, 1, 3)
	ppo := newWatchdogPPO(t)
	buf := fillBanditBuffer(rng, ac, 16, 3)
	if _, err := ppo.Update(ac, buf); err != nil {
		t.Fatal(err)
	}
	st := ppo.ExportState()
	if st.Actor.Step == 0 || st.Critic.Step == 0 {
		t.Fatalf("exported state has no optimizer steps: %+v / %+v", st.Actor.Step, st.Critic.Step)
	}

	fresh := newWatchdogPPO(t)
	if err := fresh.ImportState(ac, st); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatal("state round-trip not identical")
	}
	if a, c := fresh.LearningRates(); a != st.ActorLR || c != st.CriticLR {
		t.Fatalf("imported learning rates %v/%v, want %v/%v", a, c, st.ActorLR, st.CriticLR)
	}
}

func TestPPOImportStateRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ac := newTestAC(rng, 1, 3)
	ppo := newWatchdogPPO(t)
	good := ppo.ExportState()

	bad := good
	bad.ActorLR = 0
	if err := ppo.ImportState(ac, bad); err == nil {
		t.Fatal("non-positive actor LR accepted")
	}

	bad = good
	bad.CriticLR = -1
	if err := ppo.ImportState(ac, bad); err == nil {
		t.Fatal("negative critic LR accepted")
	}

	// Moment tensors shaped for a different network must be rejected.
	other := newTestAC(rng, 1, 5)
	otherPPO := newWatchdogPPO(t)
	if _, err := otherPPO.Update(other, fillBanditBuffer(rng, other, 8, 5)); err != nil {
		t.Fatal(err)
	}
	if err := ppo.ImportState(ac, otherPPO.ExportState()); err == nil {
		t.Fatal("mismatched moment shapes accepted")
	}
}

func TestBufferCheckFinite(t *testing.T) {
	mk := func(mod func(*Step)) *Buffer {
		b := NewBuffer(0.99, 0.97)
		s := Step{Action: 0, Mask: []bool{true}, LogP: -0.5, Value: 0.1, Reward: 1}
		mod(&s)
		b.Store(s)
		b.FinishPath(0)
		return b
	}
	if err := mk(func(*Step) {}).CheckFinite(); err != nil {
		t.Fatalf("finite buffer rejected: %v", err)
	}
	cases := []func(*Step){
		func(s *Step) { s.LogP = math.NaN() },
		func(s *Step) { s.Value = math.Inf(1) },
		func(s *Step) { s.Reward = math.Inf(-1) },
	}
	for i, mod := range cases {
		if err := mk(mod).CheckFinite(); err == nil {
			t.Errorf("case %d: non-finite step accepted", i)
		}
	}
	// A non-finite reward also propagates into advantages/returns, which the
	// scan reports even if the raw step were patched afterwards.
	b := mk(func(s *Step) { s.Reward = math.NaN() })
	b.steps[0].Reward = 1
	if err := b.CheckFinite(); err == nil {
		t.Error("non-finite advantage/return accepted")
	}
}

// TestBufferFiniteProperty is a randomized property test: finite step data
// must always yield finite GAE advantages, returns and merged batches.
func TestBufferFiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		gamma := rng.Float64()
		lam := rng.Float64()
		merged := NewBuffer(gamma, lam)
		for w := 0; w < 1+rng.Intn(3); w++ {
			b := NewBuffer(gamma, lam)
			for p := 0; p < 1+rng.Intn(3); p++ {
				n := 1 + rng.Intn(8)
				for i := 0; i < n; i++ {
					b.Store(Step{
						Action: 0,
						Mask:   []bool{true},
						LogP:   (rng.Float64() - 0.5) * 50,
						Value:  (rng.Float64() - 0.5) * 2e6,
						Reward: (rng.Float64() - 0.5) * 2e6,
					})
				}
				b.FinishPath((rng.Float64() - 0.5) * 2e6)
			}
			if err := b.CheckFinite(); err != nil {
				t.Fatalf("trial %d: finite inputs flagged: %v", trial, err)
			}
			if err := merged.Merge(b); err != nil {
				t.Fatalf("trial %d: merge: %v", trial, err)
			}
		}
		_, adv, ret, err := merged.Batch()
		if err != nil {
			t.Fatalf("trial %d: batch: %v", trial, err)
		}
		for i := range adv {
			if !finite(adv[i]) || !finite(ret[i]) {
				t.Fatalf("trial %d: non-finite adv/ret %v/%v at %d", trial, adv[i], ret[i], i)
			}
		}
	}
}

func TestBufferMergeRejectsUnfinishedPath(t *testing.T) {
	a := NewBuffer(0.99, 0.97)
	b := NewBuffer(0.99, 0.97)
	b.Store(Step{Mask: []bool{true}})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of unfinished path accepted")
	}
}
