package zoo

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// rolloutStreams is the rollout width: enough attempts to ride out one
// unlucky construction order, cheap next to a single training epoch.
const rolloutStreams = 4

// RolloutStats reports what a rollout spent and found.
type RolloutStats struct {
	// Streams is the number of attempts run, Solved how many found a
	// guarantee-satisfying plan.
	Streams, Solved int
	// EnvSteps is the total environment steps across all streams — the
	// inference cost that replaces training.
	EnvSteps int
}

// stream is one greedy construction attempt.
type stream struct {
	env   *core.Env
	steps int
	done  bool
}

// Rollout runs a pretrained policy greedily — masked argmax, no PPO, no
// gradient work — as rolloutStreams construction attempts, each in its own
// deterministically seeded environment, and returns the cheapest solution
// found (nil when no stream solved). Each stream takes at most cfg.MaxStep
// environment steps. The caller owns certification: a zoo policy's plan is
// a *candidate* until the certifier accepts it.
//
// Determinism: stream s always runs in an environment seeded
// cfg.Seed + s*104729 + 2 (the planner's worker-env schedule), actions are
// argmax with lowest-index tie-break, and the global winner is the lowest
// cost with the lowest stream index as tie-break — so the returned plan is
// bit-identical to running each stream alone.
func Rollout(ctx context.Context, prob *core.Problem, cfg core.Config, weights [][]float64) (*core.Solution, RolloutStats, error) {
	streams, err := newStreams(prob, cfg, rolloutStreams)
	if err != nil {
		return nil, RolloutStats{}, err
	}

	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		return nil, RolloutStats{}, fmt.Errorf("zoo: rollout nets: %w", err)
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	nets, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		return nil, RolloutStats{}, fmt.Errorf("zoo: rollout nets: %w", err)
	}
	if err := nets.ImportWeights(weights); err != nil {
		return nil, RolloutStats{}, fmt.Errorf("zoo: rollout nets: geometry mismatch: %w", err)
	}
	if err := runStreams(ctx, nets, streams, cfg.MaxStep); err != nil {
		return nil, RolloutStats{}, err
	}

	stats := RolloutStats{Streams: len(streams)}
	var best *core.Solution
	for _, s := range streams {
		stats.EnvSteps += s.steps
		sol := s.env.Best()
		if sol == nil {
			continue
		}
		stats.Solved++
		// Lowest cost wins; the loop's ascending stream order makes the
		// lowest stream index the tie-break.
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}
	return best, stats, nil
}

// newStreams builds n streams on the planner's worker-env seed schedule,
// sharing one verdict cache: sharing never changes a trajectory.
func newStreams(prob *core.Problem, cfg core.Config, n int) ([]*stream, error) {
	cache := cfg.VerdictCache()
	streams := make([]*stream, n)
	for s := range streams {
		env, err := core.NewEnvWithCache(prob, cfg, cfg.Seed+int64(s)*104729+2, cache)
		if err != nil {
			return nil, fmt.Errorf("zoo: rollout env: %w", err)
		}
		streams[s] = &stream{env: env}
	}
	return streams, nil
}

// runStreams drives the streams to completion. The live streams
// advance in lockstep through one ForwardPolicyValueBatch per step; row i
// of the batch is bit-identical to a single forward of obs[i], so batching
// never changes a stream's trajectory.
func runStreams(ctx context.Context, nets *core.Nets, streams []*stream, maxSteps int) error {
	n := len(streams)
	obs := make([]*core.Obs, 0, n)
	live := make([]*stream, 0, n)
	logits := make([][]float64, n)
	for i := range logits {
		logits[i] = make([]float64, nets.ActionSpace())
	}
	values := make([]float64, n)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		obs, live = obs[:0], live[:0]
		for _, s := range streams {
			if !s.done {
				live = append(live, s)
				obs = append(obs, s.env.Observation())
			}
		}
		if len(live) == 0 {
			return nil
		}
		nets.ForwardPolicyValueBatch(obs, logits[:len(live)], values[:len(live)])
		for i, s := range live {
			action := greedyAction(logits[i], s.env.Mask())
			if action < 0 {
				// No valid action from this state: the attempt is spent.
				s.done = true
				continue
			}
			_, outcome, err := s.env.StepContext(ctx, action)
			if err != nil {
				return err
			}
			s.steps++
			// The first recorded solution ends the stream — greedy
			// reconstruction is deterministic, so further budget would
			// retrace the same path.
			if outcome == core.OutcomeSolved || s.steps >= maxSteps {
				s.done = true
			}
		}
	}
}

// greedyAction is the rollout's action rule: argmax over unmasked logits
// with the lowest index winning ties, -1 when everything is masked. It is
// the hot-path kernel the alloc guard covers — no allocation, no bounds
// surprises.
func greedyAction(logits []float64, mask []bool) int {
	best := -1
	var bestV float64
	for i, ok := range mask {
		if !ok {
			continue
		}
		if best < 0 || logits[i] > bestV {
			best, bestV = i, logits[i]
		}
	}
	return best
}
