// Package rl implements the reinforcement-learning machinery of NPTSN's
// decision maker (§IV-C): a trajectory buffer with GAE-λ advantage
// estimation, the PPO-clip policy update (Eq. 5) and the critic regression,
// over an abstract actor-critic network. It corresponds to the SpinningUp
// PPO implementation the paper builds on.
package rl

import (
	"fmt"
	"math"
)

// Observation is an opaque environment observation. The actor-critic
// implementation interprets it; the RL core only stores it.
type Observation interface{}

// Step is one buffered environment interaction (Algorithm 2, line 17).
type Step struct {
	// Obs is the observation the action was chosen from.
	Obs Observation
	// Action is the sampled action index.
	Action int
	// Mask is the action mask in effect (true = selectable).
	Mask []bool
	// LogP is the log-probability of Action under the masked behavior
	// policy at collection time.
	LogP float64
	// Value is the critic's value estimate at collection time.
	Value float64
	// Reward is the immediate (scaled) reward.
	Reward float64
}

// Buffer accumulates trajectories for one epoch and computes GAE-λ
// advantages and reward-to-go targets when paths finish.
type Buffer struct {
	gamma, lam float64

	steps     []Step
	adv       []float64
	ret       []float64
	pathStart int
	paths     int
}

// NewBuffer creates a buffer with the given discount factor γ and GAE λ.
func NewBuffer(gamma, lam float64) *Buffer {
	return &Buffer{gamma: gamma, lam: lam}
}

// Store appends one step to the current path.
func (b *Buffer) Store(s Step) {
	b.steps = append(b.steps, s)
	b.adv = append(b.adv, 0)
	b.ret = append(b.ret, 0)
}

// FinishPath closes the current trajectory. lastValue bootstraps the value
// of the state after the final step: zero when the episode terminated, the
// critic estimate when the path was cut off by the epoch boundary.
func (b *Buffer) FinishPath(lastValue float64) {
	path := b.steps[b.pathStart:]
	n := len(path)
	if n == 0 {
		return
	}
	// GAE-λ: δ_t = r_t + γ V_{t+1} − V_t; A_t = Σ (γλ)^k δ_{t+k}.
	gae := 0.0
	nextValue := lastValue
	for i := n - 1; i >= 0; i-- {
		delta := path[i].Reward + b.gamma*nextValue - path[i].Value
		gae = delta + b.gamma*b.lam*gae
		b.adv[b.pathStart+i] = gae
		nextValue = path[i].Value
	}
	// Rewards-to-go (bootstrapped) as the value regression target.
	run := lastValue
	for i := n - 1; i >= 0; i-- {
		run = path[i].Reward + b.gamma*run
		b.ret[b.pathStart+i] = run
	}
	b.pathStart = len(b.steps)
	b.paths++
}

// Len returns the number of stored steps.
func (b *Buffer) Len() int { return len(b.steps) }

// Paths returns the number of finished (non-empty) trajectories recorded
// by FinishPath since the last Reset, including those merged in.
func (b *Buffer) Paths() int { return b.paths }

// Reset clears the buffer for the next epoch.
func (b *Buffer) Reset() {
	b.steps = b.steps[:0]
	b.adv = b.adv[:0]
	b.ret = b.ret[:0]
	b.pathStart = 0
	b.paths = 0
}

// Merge appends the finished contents of other into b (multi-worker
// exploration: updating on the merged batch equals averaging per-worker
// gradients). The other buffer must have all paths finished.
func (b *Buffer) Merge(other *Buffer) error {
	if other.pathStart != len(other.steps) {
		return fmt.Errorf("rl: merging buffer with an unfinished path")
	}
	b.steps = append(b.steps, other.steps...)
	b.adv = append(b.adv, other.adv...)
	b.ret = append(b.ret, other.ret...)
	b.pathStart = len(b.steps)
	b.paths += other.paths
	return nil
}

// Batch returns the collected steps with normalized advantages
// (zero mean, unit variance — the standard PPO trick) and value targets.
// All paths must be finished. All three slices are copies: a caller may
// retain them across Reset/Store/Merge without seeing them overwritten by
// the buffer's internal append reuse.
func (b *Buffer) Batch() ([]Step, []float64, []float64, error) {
	if err := b.checkBatch(); err != nil {
		return nil, nil, nil, err
	}
	adv := b.normalizedAdvantages(nil)
	ret := append([]float64(nil), b.ret...)
	steps := append([]Step(nil), b.steps...)
	return steps, adv, ret, nil
}

// checkBatch reports why the buffer cannot be trained on, if it cannot.
func (b *Buffer) checkBatch() error {
	if b.pathStart != len(b.steps) {
		return fmt.Errorf("rl: batch requested with an unfinished path")
	}
	if len(b.steps) == 0 {
		return fmt.Errorf("rl: empty buffer")
	}
	return nil
}

// normalizedAdvantages writes the advantages, shifted to zero mean and
// scaled to unit variance, into dst (grown as needed) and returns it.
func (b *Buffer) normalizedAdvantages(dst []float64) []float64 {
	n := len(b.adv)
	mean := 0.0
	for _, a := range b.adv {
		mean += a
	}
	mean /= float64(n)
	variance := 0.0
	for _, a := range b.adv {
		variance += (a - mean) * (a - mean)
	}
	std := math.Sqrt(variance / float64(n))
	if std < 1e-8 {
		std = 1e-8
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i, a := range b.adv {
		dst[i] = (a - mean) / std
	}
	return dst
}

// CheckFinite verifies that every stored log-probability, value estimate,
// reward and every derived advantage/return is finite. The divergence
// watchdog calls it before an update: NaN inputs make every retry futile.
func (b *Buffer) CheckFinite() error {
	for i, s := range b.steps {
		if !finite(s.LogP) || !finite(s.Value) || !finite(s.Reward) {
			return fmt.Errorf("rl: step %d has non-finite data (logp=%v value=%v reward=%v)",
				i, s.LogP, s.Value, s.Reward)
		}
	}
	for i := range b.adv {
		if !finite(b.adv[i]) || !finite(b.ret[i]) {
			return fmt.Errorf("rl: step %d has non-finite advantage/return (%v/%v)", i, b.adv[i], b.ret[i])
		}
	}
	return nil
}

// EpochReward returns the mean total reward per finished trajectory, the
// quantity plotted in the sensitivity figures (Fig. 5): the undiscounted
// sum of all stored rewards divided by the number of non-empty paths the
// buffer recorded through FinishPath (and Merge). It returns 0 when no
// path has finished.
func (b *Buffer) EpochReward() float64 {
	if b.paths <= 0 {
		return 0
	}
	var sum float64
	for _, s := range b.steps {
		sum += s.Reward
	}
	return sum / float64(b.paths)
}
