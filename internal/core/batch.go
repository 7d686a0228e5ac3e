package core

import (
	"sync"
	"time"
)

// policyBatcher synchronizes the exploration workers' per-step policy
// evaluations into single batched forward passes on one shared network
// (§IV-C's parallel exploration, restructured around the batched NN hot
// path). Each worker that reaches its next decision point submits its
// observation and blocks; when every *active* worker has submitted, the
// last one to arrive runs one ForwardPolicyValueBatch over the stacked
// observations and wakes the rest.
//
// Membership is dynamic: workers join before their first evaluation and
// depart when they finish their step quota, error out, get cancelled or
// panic (depart runs via defer *inside* the exploration frame, so it
// executes before the planner's panic recovery and a crashing worker can
// never strand the others at the barrier). A departure re-checks the
// barrier, so stragglers still form a (smaller) batch.
//
// Correctness does not depend on batch composition: the batched forward is
// row-wise bit-identical to single-observation forwards, every worker
// samples from its own RNG stream, and the networks only change weights at
// the epoch boundary (after all workers left the barrier). Scheduling
// nondeterminism therefore cannot leak into trajectories —
// TestExplorationIndependentOfBatchComposition asserts exactly that.
type policyBatcher struct {
	nets *Nets

	mu     sync.Mutex
	cond   *sync.Cond
	active int // workers currently participating in the barrier

	obs    []*Obs      // pending observations, one per waiting worker
	logits [][]float64 // caller-owned destination slices, parallel to obs
	values []float64   // batched critic results, parallel to obs
	outs   []*float64  // caller-owned value destinations, parallel to obs
	gen    uint64      // incremented when a batch completes; waiters key on it

	// forward is the wall-clock of the batched forwards; wait is the time
	// workers spent in eval other than running a forward themselves.
	// Both are lifetime sums, read through times.
	forward, wait time.Duration
}

// newPolicyBatcher builds a batcher evaluating on the given (shared) nets.
func newPolicyBatcher(nets *Nets) *policyBatcher {
	b := &policyBatcher{nets: nets}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// join registers a worker with the barrier.
func (b *policyBatcher) join() {
	b.mu.Lock()
	b.active++
	b.mu.Unlock()
}

// depart removes a worker. If the remaining workers are all waiting, the
// departure completes their batch.
func (b *policyBatcher) depart() {
	b.mu.Lock()
	b.active--
	b.maybeRunLocked()
	b.mu.Unlock()
}

// eval submits one observation and blocks until its batch ran. The policy
// logits are written into logitsDst and the critic value into valueDst;
// both are worker-owned scratch (taking them as destinations rather than
// returning fresh slices keeps the step loop allocation-free). Must be
// called between join and depart.
func (b *policyBatcher) eval(obs *Obs, logitsDst []float64, valueDst *float64) {
	start := time.Now()
	b.mu.Lock()
	b.obs = append(b.obs, obs)
	b.logits = append(b.logits, logitsDst)
	b.outs = append(b.outs, valueDst)
	gen := b.gen
	ran := b.maybeRunLocked()
	for b.gen == gen {
		b.cond.Wait()
	}
	b.wait += time.Since(start) - ran
	b.mu.Unlock()
}

// times returns the lifetime sums of batched-forward and worker-wait
// wall-clock.
func (b *policyBatcher) times() (forward, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.forward, b.wait
}

// maybeRunLocked runs the pending batch when every active worker is
// waiting on it and returns how long its forward took (zero when it did
// not run). Called with mu held.
func (b *policyBatcher) maybeRunLocked() time.Duration {
	n := len(b.obs)
	if n == 0 || n < b.active {
		return 0
	}
	if cap(b.values) < n {
		b.values = make([]float64, n)
	}
	b.values = b.values[:n]
	// The forward runs on the triggering worker's goroutine while the
	// others wait on cond; the lock serializes all access to nets.
	start := time.Now()
	b.nets.ForwardPolicyValueBatch(b.obs, b.logits, b.values)
	took := time.Since(start)
	b.forward += took
	for i, out := range b.outs {
		*out = b.values[i]
	}
	b.obs = b.obs[:0]
	b.logits = b.logits[:0]
	b.outs = b.outs[:0]
	b.gen++
	b.cond.Broadcast()
	return took
}
