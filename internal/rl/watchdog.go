package rl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
)

// ErrDiverged marks a PPO update that produced non-finite losses or
// weights. UpdateWithRecovery wraps it; callers test with errors.Is.
var ErrDiverged = errors.New("rl: ppo update diverged (non-finite loss or weights)")

// RecoveryInfo reports what the divergence watchdog did during one update.
type RecoveryInfo struct {
	// Rollbacks counts weight rollbacks (each halves both learning rates).
	Rollbacks int
	// ActorLR / CriticLR are the learning rates in effect after the update,
	// reflecting any halving done by the watchdog this call or earlier.
	ActorLR  float64
	CriticLR float64
}

// PPOState is a serializable snapshot of the updater: the current learning
// rates (which the watchdog may have halved) and both Adam moment sets.
// Checkpoints persist it so a resumed run updates identically.
type PPOState struct {
	ActorLR  float64      `json:"actorLR"`
	CriticLR float64      `json:"criticLR"`
	Actor    nn.AdamState `json:"actor"`
	Critic   nn.AdamState `json:"critic"`
}

// ExportState snapshots the optimizer state for a checkpoint.
func (p *PPO) ExportState() PPOState {
	return PPOState{
		ActorLR:  p.actorOpt.LR,
		CriticLR: p.criticOpt.LR,
		Actor:    p.actorOpt.Export(),
		Critic:   p.criticOpt.Export(),
	}
}

// ImportState restores a snapshot taken with ExportState. ac supplies the
// parameter shapes for the moment tensors and must match the network the
// snapshot was taken from.
func (p *PPO) ImportState(ac ActorCritic, st PPOState) error {
	if st.ActorLR <= 0 || st.CriticLR <= 0 {
		return fmt.Errorf("rl: ppo state has non-positive learning rates %v/%v", st.ActorLR, st.CriticLR)
	}
	if err := p.actorOpt.Import(ac.PolicyParams(), st.Actor); err != nil {
		return fmt.Errorf("rl: actor optimizer: %w", err)
	}
	if err := p.criticOpt.Import(ac.ValueParams(), st.Critic); err != nil {
		return fmt.Errorf("rl: critic optimizer: %w", err)
	}
	p.actorOpt.LR = st.ActorLR
	p.criticOpt.LR = st.CriticLR
	return nil
}

// UpdateWithRecovery runs Update under a divergence watchdog: if the update
// leaves a NaN/Inf in the losses, the KL estimate or any network weight, or
// panics inside the numerics (a symptom of the same corruption),
// the weights and Adam moments are rolled back to their pre-update values,
// both learning rates are halved, and the update is retried — up to
// `retries` times, after which the (rolled back, still finite) network is
// left in place and an error wrapping ErrDiverged is returned. A batch that
// itself contains non-finite data fails immediately: no learning rate can
// fix poisoned inputs.
func (p *PPO) UpdateWithRecovery(ac ActorCritic, buf *Buffer, retries int) (UpdateStats, RecoveryInfo, error) {
	info := RecoveryInfo{ActorLR: p.actorOpt.LR, CriticLR: p.criticOpt.LR}
	if retries < 0 {
		return UpdateStats{}, info, fmt.Errorf("rl: negative divergence retry budget %d", retries)
	}
	if err := buf.CheckFinite(); err != nil {
		return UpdateStats{}, info, fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	params := append(ac.PolicyParams(), ac.ValueParams()...)
	for attempt := 0; ; attempt++ {
		weights := nn.ExportWeights(params)
		actorSt := p.actorOpt.Export()
		criticSt := p.criticOpt.Export()

		stats, panicked, err := p.updateGuarded(ac, buf)
		if err != nil {
			return stats, info, err
		}
		if panicked == nil && statsFinite(stats) && paramsFinite(params) {
			info.ActorLR, info.CriticLR = p.actorOpt.LR, p.criticOpt.LR
			return stats, info, nil
		}

		// Diverged: restore the last good weights and moments. The trunk
		// appears in both parameter lists; restoring it twice is harmless.
		if err := nn.ImportWeights(params, weights); err != nil {
			return stats, info, fmt.Errorf("rl: rollback failed: %w", err)
		}
		if err := p.actorOpt.Import(ac.PolicyParams(), actorSt); err != nil {
			return stats, info, fmt.Errorf("rl: rollback failed: %w", err)
		}
		if err := p.criticOpt.Import(ac.ValueParams(), criticSt); err != nil {
			return stats, info, fmt.Errorf("rl: rollback failed: %w", err)
		}
		if attempt >= retries {
			return stats, info, fmt.Errorf("%w after %d rollback(s)", ErrDiverged, info.Rollbacks)
		}
		p.actorOpt.LR /= 2
		p.criticOpt.LR /= 2
		info.Rollbacks++
		info.ActorLR, info.CriticLR = p.actorOpt.LR, p.criticOpt.LR
	}
}

// updateGuarded runs Update with panic isolation. Non-finite weights can
// surface as panics deep inside the math (e.g. a log-softmax over all-NaN
// logits looks fully masked); the watchdog must treat those exactly like a
// NaN loss — roll back and retry — rather than crash the training run.
func (p *PPO) updateGuarded(ac ActorCritic, buf *Buffer) (stats UpdateStats, panicked error, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Errorf("rl: ppo update panicked: %v", r)
		}
	}()
	stats, err = p.Update(ac, buf)
	return stats, nil, err
}

// statsFinite reports whether every scalar of an update result is finite.
func statsFinite(s UpdateStats) bool {
	return finite(s.PolicyLoss) && finite(s.ValueLoss) && finite(s.ApproxKL) && finite(s.Entropy)
}

// paramsFinite scans all weight values for NaN/Inf.
func paramsFinite(ps []nn.Param) bool {
	for _, p := range ps {
		for _, v := range p.Value.Data {
			if !finite(v) {
				return false
			}
		}
	}
	return true
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
