package core

import (
	"fmt"

	"repro/internal/rl"
)

// Checkpoint captures the complete resumable state of a training run at an
// epoch boundary: global network weights, Adam moments and (possibly
// watchdog-halved) learning rates, the epoch history, the best solution so
// far, and every worker's RNG and environment state. A run resumed from a
// checkpoint with the same problem, configuration and seed reproduces the
// uninterrupted run's per-epoch statistics exactly. Persist it with
// serialize.SaveCheckpoint / load it with serialize.LoadCheckpoint.
type Checkpoint struct {
	// Fingerprint identifies the problem geometry and the trajectory-
	// relevant configuration; Resume rejects a mismatch.
	Fingerprint string
	// Epoch is the last completed training epoch.
	Epoch int
	// Weights are the global network's parameters (Nets.ExportWeights).
	Weights [][]float64
	// PPO holds both Adam moment sets and the current learning rates.
	PPO rl.PPOState
	// Best is the best solution found so far (nil if none yet).
	Best *Solution
	// Epochs is the per-epoch statistics history up to Epoch.
	Epochs []EpochStats
	// Workers holds one entry per exploration worker, in worker order.
	Workers []WorkerState
}

// WorkerState is one exploration worker's resumable state.
type WorkerState struct {
	// RNG is the worker's action-sampling RNG state at the epoch boundary.
	RNG uint64
	// Env is the worker environment's snapshot.
	Env EnvState
	// Best is the environment's best recorded solution (nil if none).
	Best *Solution
}

// fingerprint digests everything that shapes the training trajectory: the
// problem geometry and every configuration field that influences
// exploration or updates. MaxEpoch is deliberately excluded so a resumed
// run may extend the horizon. The literal bonus=0 term stands for the
// positive solution reward, which is no longer configurable; it stays so
// that checkpoints written while it was still resume.
func (p *Planner) fingerprint() string {
	// The warm seed shapes every environment reset, so a checkpoint taken
	// under one seed must not resume a run under another (or none). The
	// field is appended only when warm-starting, keeping checkpoints from
	// cold runs — which predate the field — valid unchanged.
	warm := ""
	if p.cfg.WarmStart != nil {
		if ws, err := buildWarmSeed(p.prob, p.cfg.WarmStart); err == nil {
			warm = "|warm=" + ws.digest()
		} else {
			// Planner construction already validated the seed; an error here
			// still must not silently alias the cold fingerprint.
			warm = "|warm=invalid"
		}
	}
	return fmt.Sprintf(
		"nptsn-ckpt|prob:v=%d,e=%d,f=%d,r=%g,esd=%d,esl=%d,flr=%t|"+
			"cfg:gcn=%d/%d/%d,gat=%t,mlp=%v,k=%d,steps=%d,scale=%g,clip=%g,"+
			"alr=%g,clr=%g,lam=%g,gamma=%g,pi=%d,vi=%d,kl=%g,workers=%d,seed=%d,"+
			"nomask=%t,bonus=0,perflow=%t,exh=%t,retries=%d",
		p.prob.NumVertices(), p.prob.Connections.NumEdges(), len(p.prob.Flows),
		p.prob.ReliabilityGoal, p.prob.MaxESDegree, int(p.prob.ESLevel), p.prob.FlowLevelRedundancy,
		p.cfg.GCNLayers, p.cfg.GCNHidden, p.cfg.EmbeddingPerNode, p.cfg.UseGAT,
		p.cfg.MLPHidden, p.cfg.K, p.cfg.MaxStep, p.cfg.RewardScale, p.cfg.ClipRatio,
		p.cfg.ActorLR, p.cfg.CriticLR, p.cfg.GAELambda, p.cfg.Discount,
		p.cfg.TrainPiIters, p.cfg.TrainVIters, p.cfg.TargetKL, p.cfg.Workers, p.cfg.Seed,
		p.cfg.DisableSOAGMasking, p.cfg.PerFlowEncoding,
		p.cfg.ExhaustivePathGeneration, p.cfg.DivergenceRetries,
	) + warm
}

// capture snapshots the full training state after epoch `epoch` completed.
// Everything mutable is deep-copied so the checkpoint stays valid while
// training continues.
func (p *Planner) capture(epoch int, global *Nets, ppo *rl.PPO, workers []*worker, report *Report) *Checkpoint {
	ck := &Checkpoint{
		Fingerprint: p.fingerprint(),
		Epoch:       epoch,
		Weights:     global.ExportWeights(),
		PPO:         ppo.ExportState(),
		Best:        report.Best.Clone(),
		Epochs:      append([]EpochStats(nil), report.Epochs...),
		Workers:     make([]WorkerState, len(workers)),
	}
	for i, w := range workers {
		ck.Workers[i] = WorkerState{
			RNG:  w.src.State(),
			Env:  w.env.ExportState(),
			Best: w.env.Best().Clone(),
		}
	}
	return ck
}

// restore rebuilds the training state from a checkpoint into the freshly
// constructed global nets, PPO updater and workers.
func (p *Planner) restore(ck *Checkpoint, global *Nets, ppo *rl.PPO, workers []*worker, report *Report) error {
	if got, want := ck.Fingerprint, p.fingerprint(); got != want {
		return fmt.Errorf("planner: checkpoint does not match this problem/configuration:\n  checkpoint %s\n  current    %s", got, want)
	}
	if ck.Epoch <= 0 || ck.Epoch >= p.cfg.MaxEpoch {
		return fmt.Errorf("planner: checkpoint epoch %d outside training horizon (MaxEpoch %d)", ck.Epoch, p.cfg.MaxEpoch)
	}
	if len(ck.Workers) != len(workers) {
		return fmt.Errorf("planner: checkpoint has %d workers, config has %d", len(ck.Workers), len(workers))
	}
	if len(ck.Epochs) != ck.Epoch {
		return fmt.Errorf("planner: checkpoint records %d epoch stats for epoch %d", len(ck.Epochs), ck.Epoch)
	}
	if err := global.ImportWeights(ck.Weights); err != nil {
		return fmt.Errorf("planner: checkpoint weights: %w", err)
	}
	if err := ppo.ImportState(global, ck.PPO); err != nil {
		return fmt.Errorf("planner: checkpoint optimizer state: %w", err)
	}
	for i, w := range workers {
		ws := ck.Workers[i]
		w.src.SetState(ws.RNG)
		if err := w.env.ImportState(ws.Env, ws.Best); err != nil {
			return fmt.Errorf("planner: worker %d: %w", i, err)
		}
	}
	report.Epochs = append([]EpochStats(nil), ck.Epochs...)
	report.Best = ck.Best.Clone()
	return nil
}
