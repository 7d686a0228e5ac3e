package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestForwardPolicyValueBatchMatchesSingle is the contract the batched
// exploration path stands on: forwarding a batch of distinct observations
// must reproduce, per observation, the exact bits of individual
// ForwardPolicy/ForwardValue calls. The trunk runs per observation inside
// the batched call and the dense heads compute rows independently, so any
// divergence here is a kernel bug, not rounding.
func TestForwardPolicyValueBatchMatchesSingle(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, err := NewSOAG(prob, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(17)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct observations from states along a greedy rollout.
	env, err := NewEnvWithCache(prob, cfg, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := []*Obs{env.Observation()}
	for len(batch) < 5 {
		act := -1
		for i, ok := range env.Mask() {
			if ok {
				act = i
				break
			}
		}
		if act < 0 {
			break
		}
		if _, _, err := env.Step(act); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, env.Observation())
	}
	if len(batch) < 2 {
		t.Fatalf("rollout produced only %d observations", len(batch))
	}

	// Single-call references, copied out of the borrowed scratch.
	wantLogits := make([][]float64, len(batch))
	wantValues := make([]float64, len(batch))
	for i, o := range batch {
		wantLogits[i] = append([]float64(nil), nets.ForwardPolicy(o)...)
		wantValues[i] = nets.ForwardValue(o)
	}

	logits := make([][]float64, len(batch))
	for i := range logits {
		logits[i] = make([]float64, soag.ActionSpaceSize())
	}
	values := make([]float64, len(batch))
	nets.ForwardPolicyValueBatch(batch, logits, values)

	for i := range batch {
		if values[i] != wantValues[i] {
			t.Fatalf("obs %d: batched value %v != single %v (must be bit-identical)", i, values[i], wantValues[i])
		}
		for j := range logits[i] {
			if logits[i][j] != wantLogits[i][j] {
				t.Fatalf("obs %d logit %d: batched %v != single %v (must be bit-identical)", i, j, logits[i][j], wantLogits[i][j])
			}
		}
	}
}

// TestExplorationIndependentOfBatchComposition is the differential
// determinism suite for the exploration barrier. One run is plain: the
// workers reach the barrier together and share batched forwards. In the
// other, ExploreHook holds worker w for w×20 ms at the start of every
// round — well over a tiny epoch's exploration — so each worker explores
// alone in batches of one. With per-worker RNG streams and row-wise
// bit-identical batched forwards, both runs must train the same
// trajectory: same rewards, losses, counts and best cost.
func TestExplorationIndependentOfBatchComposition(t *testing.T) {
	prob := tinyProblem(t)
	for _, seed := range []int64{1, 23} {
		for _, workers := range []int{2, 4} {
			cfg := tinyConfig()
			cfg.Seed = seed
			cfg.Workers = workers
			staggered := cfg
			staggered.ExploreHook = func(ctx context.Context, _, w int) {
				select {
				case <-time.After(time.Duration(w) * 20 * time.Millisecond):
				case <-ctx.Done():
				}
			}
			want := planOnce(t, prob, staggered)
			got := planOnce(t, prob, cfg)
			assertSameTrajectory(t, fmt.Sprintf("seed=%d workers=%d", seed, workers), want, got)
		}
	}
}
