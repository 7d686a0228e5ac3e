package rl

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// ActorCritic abstracts the GCN+MLP networks of Fig. 3 as the PPO update
// sees them: one batch of observations, evaluated many times under
// changing weights. The policy and value heads share the GCN trunk; each
// head exposes its own parameter list (trunk parameters appear in both,
// matching "the weights of the GCN are updated twice", §IV-C) and its own
// batched forward/backward pair, with one row per observation.
type ActorCritic interface {
	// LoadBatch fixes the observations that the batch forwards evaluate,
	// row i for obs[i], until the next LoadBatch. The slice is borrowed
	// until then. An empty obs releases the previous batch: Update ends
	// with one, so no observation outlives the update that trained on it.
	LoadBatch(obs []Observation)

	// ForwardPolicyBatch computes raw (unmasked) action logits, one row per
	// loaded observation, and caches activations for BackwardPolicyBatch.
	// The returned matrix is borrowed network scratch: it is valid until
	// the next forward call and must not be modified or retained.
	ForwardPolicyBatch() *nn.Matrix
	// BackwardPolicyBatch accumulates policy-head gradients for the
	// upstream logit gradients (same shape as the logits). Each gradient
	// element sums the rows' terms in row order.
	BackwardPolicyBatch(dLogits *nn.Matrix)
	// PolicyParams lists trunk + actor-head parameters.
	PolicyParams() []nn.Param

	// ForwardValueBatch computes the value estimates as a B×1 matrix
	// (borrowed like the logits) and caches activations for
	// BackwardValueBatch.
	ForwardValueBatch() *nn.Matrix
	// BackwardValueBatch accumulates value-head gradients for the B×1
	// upstream value gradients.
	BackwardValueBatch(dValues *nn.Matrix)
	// ValueParams lists trunk + critic-head parameters.
	ValueParams() []nn.Param
}

// PPOConfig collects the update hyperparameters (Table II plus the
// SpinningUp defaults for iteration counts).
type PPOConfig struct {
	// ClipRatio is ε of Eq. 5.
	ClipRatio float64
	// ActorLR / CriticLR are the Adam learning rates.
	ActorLR  float64
	CriticLR float64
	// TrainPiIters / TrainVIters are gradient steps per epoch.
	TrainPiIters int
	TrainVIters  int
	// TargetKL triggers early stopping of policy iterations when the
	// sample KL estimate exceeds 1.5×TargetKL (SpinningUp convention).
	TargetKL float64
}

// Validate checks the configuration.
func (c PPOConfig) Validate() error {
	if c.ClipRatio <= 0 || c.ClipRatio >= 1 {
		return fmt.Errorf("ppo: clip ratio %v must be in (0,1)", c.ClipRatio)
	}
	if c.ActorLR <= 0 || c.CriticLR <= 0 {
		return fmt.Errorf("ppo: learning rates must be positive")
	}
	if c.TrainPiIters <= 0 || c.TrainVIters <= 0 {
		return fmt.Errorf("ppo: iteration counts must be positive")
	}
	return nil
}

// UpdateStats reports what one PPO update did.
type UpdateStats struct {
	PolicyLoss   float64
	ValueLoss    float64
	ApproxKL     float64
	Entropy      float64
	ClipFraction float64
	PiIters      int
	EarlyStopped bool
}

// PPO owns the two Adam optimizers and performs epoch updates
// (Algorithm 2, lines 19–21).
type PPO struct {
	cfg       PPOConfig
	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	// scratch backs the per-step masked-logits / probability vectors of
	// Update, sized from the logits; obs, adv, dLogits and dValues are the
	// batch-sized update buffers. All are sized on the first Update and
	// reused, so steady-state updates allocate nothing.
	scratch *nn.Scratch
	obs     []Observation
	adv     []float64
	dLogits nn.Matrix
	dValues nn.Matrix
}

// scratchFor returns the update scratch arena, (re)built when the action
// space changed.
func (p *PPO) scratchFor(n int) *nn.Scratch {
	if p.scratch == nil || len(p.scratch.Masked) != n {
		p.scratch = nn.NewScratch(n)
	}
	return p.scratch
}

// NewPPO builds a PPO updater.
func NewPPO(cfg PPOConfig) (*PPO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PPO{
		cfg:       cfg,
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
	}, nil
}

// AdamSteps reports how many optimizer updates the actor and critic Adam
// instances have applied over the lifetime of this PPO (telemetry).
func (p *PPO) AdamSteps() (actor, critic int) {
	return p.actorOpt.Steps(), p.criticOpt.Steps()
}

// Update performs one epoch's gradient updates from the buffered data:
// gradient ascent on the PPO-clip objective for GCN+actor, gradient descent
// on the value MSE for GCN+critic. Every iteration evaluates the whole
// batch in one forward and one backward pass. Gradients are zeroed before
// each backward pass and each gradient element sums the per-step terms in
// step order, so the result is the one per-step passes would give; steps
// whose clipped objective has zero gradient contribute exact zeros. A
// policy iteration that stops early on KL runs no backward pass.
func (p *PPO) Update(ac ActorCritic, buf *Buffer) (UpdateStats, error) {
	if err := buf.checkBatch(); err != nil {
		return UpdateStats{}, err
	}
	steps, ret := buf.steps, buf.ret
	// A stored action its own mask disables is poisoned data: its behavior
	// log-probability is -inf and the policy gradient would push mass onto
	// a disabled action. No retry can fix the batch, so reject it up front
	// rather than let the numerics corrupt the policy.
	for i, s := range steps {
		if s.Mask == nil {
			continue
		}
		if s.Action < 0 || s.Action >= len(s.Mask) || !s.Mask[s.Action] {
			return UpdateStats{}, fmt.Errorf("rl: step %d stores action %d that its mask disables", i, s.Action)
		}
	}
	p.adv = buf.normalizedAdvantages(p.adv)
	adv := p.adv
	p.obs = p.obs[:0]
	for _, s := range steps {
		p.obs = append(p.obs, s.Obs)
	}
	ac.LoadBatch(p.obs)
	defer func() {
		clear(p.obs)
		ac.LoadBatch(nil)
	}()
	n := float64(len(steps))
	clipLo, clipHi := 1-p.cfg.ClipRatio, 1+p.cfg.ClipRatio
	var stats UpdateStats

	// Policy iterations.
	for iter := 0; iter < p.cfg.TrainPiIters; iter++ {
		logits := ac.ForwardPolicyBatch()
		width := logits.Cols
		sc := p.scratchFor(width)
		p.dLogits.EnsureShape(logits.Rows, width)
		var loss, kl, entropy, clipped float64
		for i, s := range steps {
			masked := nn.MaskLogitsInto(sc.Masked, logits.Data[i*width:(i+1)*width], s.Mask)
			logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[s.Action]
			ratio := math.Exp(logp - s.LogP)

			a := adv[i]
			unclipped := ratio * a
			clampedRatio := math.Min(math.Max(ratio, clipLo), clipHi)
			obj := math.Min(unclipped, clampedRatio*a)
			loss += -obj
			kl += s.LogP - logp
			entropy += nn.Entropy(nn.SoftmaxInto(sc.Probs, masked))

			// Gradient of -obj w.r.t. logp: active only when the
			// unclipped branch is selected.
			var dObjDLogp float64
			if (a >= 0 && ratio <= clipHi) || (a < 0 && ratio >= clipLo) {
				dObjDLogp = ratio * a
			} else {
				clipped++
			}
			gLogits := p.dLogits.Data[i*width : (i+1)*width]
			if dObjDLogp == 0 {
				clear(gLogits)
				continue
			}
			nn.LogSoftmaxGradInto(gLogits, masked, s.Action)
			scale := -dObjDLogp / n // minimize loss = -mean(obj)
			for j, g := range gLogits {
				gLogits[j] = scale * g
			}
		}
		stats.PolicyLoss = loss / n
		stats.ApproxKL = kl / n
		stats.Entropy = entropy / n
		stats.ClipFraction = clipped / n
		stats.PiIters = iter + 1
		if p.cfg.TargetKL > 0 && stats.ApproxKL > 1.5*p.cfg.TargetKL {
			stats.EarlyStopped = true
			break
		}
		nn.ZeroGrads(ac.PolicyParams())
		ac.BackwardPolicyBatch(&p.dLogits)
		p.actorOpt.Step(ac.PolicyParams())
	}

	// Value iterations.
	for iter := 0; iter < p.cfg.TrainVIters; iter++ {
		values := ac.ForwardValueBatch()
		p.dValues.EnsureShape(len(steps), 1)
		var loss float64
		for i := range steps {
			diff := values.Data[i] - ret[i]
			loss += diff * diff
			p.dValues.Data[i] = 2 * diff / n
		}
		stats.ValueLoss = loss / n
		nn.ZeroGrads(ac.ValueParams())
		ac.BackwardValueBatch(&p.dValues)
		p.criticOpt.Step(ac.ValueParams())
	}
	return stats, nil
}
