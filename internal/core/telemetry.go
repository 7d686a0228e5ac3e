package core

import (
	"time"

	"repro/internal/failure"
	"repro/internal/obsv"
)

// plannerMetrics bundles the metric handles the planner updates while
// training. It is built once per PlanContext from Config.Metrics and is
// nil when metrics are disabled; registration is idempotent, so several
// sequential runs in one process (the eval harness) accumulate into the
// same series.
type plannerMetrics struct {
	epochs       *obsv.Counter
	envSteps     *obsv.Counter
	envResets    *obsv.Counter
	trajectories *obsv.Counter
	solutions    *obsv.Counter
	deadEnds     *obsv.Counter
	nbfCalls     *obsv.Counter
	analysisSecs *obsv.Counter
	cacheHits    *obsv.Counter
	cacheMisses  *obsv.Counter
	cacheEvicted *obsv.Counter
	piIters      *obsv.Counter
	earlyStops   *obsv.Counter
	rollbacks    *obsv.Counter
	quarantines  *obsv.Counter

	reward       *obsv.Gauge
	policyLoss   *obsv.Gauge
	valueLoss    *obsv.Gauge
	entropy      *obsv.Gauge
	approxKL     *obsv.Gauge
	clipFraction *obsv.Gauge
	bestCost     *obsv.Gauge
	adamSteps    *obsv.Gauge
	cacheEntries *obsv.Gauge

	epochDur  *obsv.Histogram
	updateDur *obsv.Histogram
	ckptSave  *obsv.Histogram
	ckptLoad  *obsv.Histogram

	// lastEvictions turns the cache's lifetime eviction total into
	// per-epoch deltas (the epoch loop is single-goroutine).
	lastEvictions int64
}

func newPlannerMetrics(reg *obsv.Registry) *plannerMetrics {
	return &plannerMetrics{
		epochs:       reg.Counter("nptsn_epochs_total", "Completed training epochs."),
		envSteps:     reg.Counter("nptsn_env_steps_total", "Environment steps trained on (merged across workers)."),
		envResets:    reg.Counter("nptsn_env_resets_total", "Environment construction resets (solutions, dead ends, re-arms)."),
		trajectories: reg.Counter("nptsn_trajectories_total", "Trajectories finished during exploration."),
		solutions:    reg.Counter("nptsn_solutions_total", "Valid solutions recorded during exploration."),
		deadEnds:     reg.Counter("nptsn_dead_ends_total", "Dead-end trajectories (no valid action left)."),
		nbfCalls:     reg.Counter("nptsn_analysis_nbf_calls_total", "Recovery simulations run by the failure analyzer."),
		analysisSecs: reg.Counter("nptsn_analysis_seconds_total", "Failure-analysis wall-clock summed across workers."),
		cacheHits:    reg.Counter("nptsn_analysis_cache_hits_total", "Verdict-cache hits."),
		cacheMisses:  reg.Counter("nptsn_analysis_cache_misses_total", "Verdict-cache misses."),
		cacheEvicted: reg.Counter("nptsn_analysis_cache_evictions_total", "Verdict-cache entries evicted to make room."),
		piIters:      reg.Counter("nptsn_ppo_pi_iters_total", "Policy gradient iterations actually run."),
		earlyStops:   reg.Counter("nptsn_ppo_early_stops_total", "PPO policy updates stopped early by the KL bound."),
		rollbacks:    reg.Counter("nptsn_watchdog_rollbacks_total", "NaN-watchdog weight rollbacks (each halves both learning rates)."),
		quarantines:  reg.Counter("nptsn_worker_quarantines_total", "Exploration workers quarantined after a panic."),

		reward:       reg.Gauge("nptsn_epoch_reward", "Mean total reward per trajectory of the last epoch."),
		policyLoss:   reg.Gauge("nptsn_policy_loss", "PPO-clip policy loss of the last epoch."),
		valueLoss:    reg.Gauge("nptsn_value_loss", "Critic MSE of the last epoch."),
		entropy:      reg.Gauge("nptsn_policy_entropy", "Mean policy entropy (nats) of the last epoch."),
		approxKL:     reg.Gauge("nptsn_approx_kl", "Sample KL estimate of the last policy update."),
		clipFraction: reg.Gauge("nptsn_clip_fraction", "Fraction of samples clipped in the last policy update."),
		bestCost:     reg.Gauge("nptsn_best_cost", "Best solution cost found so far (0 before the first solution)."),
		adamSteps:    reg.Gauge("nptsn_adam_steps", "Lifetime actor+critic Adam update count."),
		cacheEntries: reg.Gauge("nptsn_analysis_cache_entries", "Verdicts currently memoized."),

		epochDur:  reg.Histogram("nptsn_epoch_duration_seconds", "Wall-clock per epoch (exploration + update).", obsv.DurationBuckets),
		updateDur: reg.Histogram("nptsn_epoch_update_seconds", "Wall-clock of each epoch's PPO update, watchdog retries included.", obsv.DurationBuckets),
		ckptSave:  reg.Histogram("nptsn_checkpoint_save_seconds", "Checkpoint capture+write duration.", obsv.DurationBuckets),
		ckptLoad:  reg.Histogram("nptsn_checkpoint_load_seconds", "Checkpoint restore duration.", obsv.DurationBuckets),
	}
}

// recordEpoch folds one completed epoch into the metrics.
func (m *plannerMetrics) recordEpoch(es EpochStats, cache *failure.Cache) {
	if m == nil {
		return
	}
	m.epochs.Inc()
	m.envSteps.Add(float64(es.EnvSteps))
	m.envResets.Add(float64(es.EnvResets))
	m.trajectories.Add(float64(es.Trajectories))
	m.solutions.Add(float64(es.Solutions))
	m.deadEnds.Add(float64(es.DeadEnds))
	m.nbfCalls.Add(float64(es.NBFCalls))
	m.analysisSecs.Add(es.AnalysisTime.Seconds())
	m.cacheHits.Add(float64(es.AnalysisCacheHits))
	m.cacheMisses.Add(float64(es.AnalysisCacheMisses))
	m.piIters.Add(float64(es.PolicyIters))
	if es.EarlyStopped {
		m.earlyStops.Inc()
	}
	m.rollbacks.Add(float64(es.Divergences))
	m.quarantines.Add(float64(len(es.Panics)))

	m.reward.Set(es.Reward)
	m.policyLoss.Set(es.PolicyLoss)
	m.valueLoss.Set(es.ValueLoss)
	m.entropy.Set(es.Entropy)
	m.approxKL.Set(es.ApproxKL)
	m.clipFraction.Set(es.ClipFraction)
	m.bestCost.Set(es.BestCost)
	m.adamSteps.Set(float64(es.AdamSteps))
	m.epochDur.Observe(es.Duration.Seconds())
	m.updateDur.Observe(es.UpdateTime.Seconds())

	if cache != nil {
		st := cache.Stats()
		m.cacheEntries.Set(float64(st.Entries))
		if d := st.Evictions - m.lastEvictions; d > 0 {
			m.cacheEvicted.Add(float64(d))
			m.lastEvictions = st.Evictions
		}
	}
}

// epochEvent flattens one epoch's statistics into a structured telemetry
// event. Every numeric field lives in V under a stable key so event logs
// from different runs are machine-comparable.
func epochEvent(es EpochStats) obsv.Event {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return obsv.Event{
		Type:  obsv.EventEpoch,
		Epoch: es.Epoch,
		V: map[string]float64{
			"reward":           es.Reward,
			"policy_loss":      es.PolicyLoss,
			"value_loss":       es.ValueLoss,
			"entropy":          es.Entropy,
			"approx_kl":        es.ApproxKL,
			"clip_fraction":    es.ClipFraction,
			"pi_iters":         float64(es.PolicyIters),
			"early_stopped":    b2f(es.EarlyStopped),
			"adam_steps":       float64(es.AdamSteps),
			"trajectories":     float64(es.Trajectories),
			"solutions":        float64(es.Solutions),
			"dead_ends":        float64(es.DeadEnds),
			"env_steps":        float64(es.EnvSteps),
			"env_resets":       float64(es.EnvResets),
			"best_cost":        es.BestCost,
			"duration_seconds": es.Duration.Seconds(),
			"explore_seconds":  es.ExploreTime.Seconds(),
			"update_seconds":   es.UpdateTime.Seconds(),
			"analysis_seconds": es.AnalysisTime.Seconds(),
			"nbf_calls":        float64(es.NBFCalls),
			"cache_hits":       float64(es.AnalysisCacheHits),
			"cache_misses":     float64(es.AnalysisCacheMisses),
			"divergences":      float64(es.Divergences),
			"panics":           float64(len(es.Panics)),
		},
	}
}

// durationEvent builds a checkpoint_save / checkpoint_load event.
func durationEvent(typ string, epoch int, d time.Duration) obsv.Event {
	return obsv.Event{
		Type:  typ,
		Epoch: epoch,
		V:     map[string]float64{"duration_seconds": d.Seconds()},
	}
}
