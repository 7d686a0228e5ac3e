package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/nn"
	"repro/internal/obsv"
	"repro/internal/rl"
	"repro/internal/rng"
)

// EpochStats records one training epoch for reporting (the Fig. 5 curves).
type EpochStats struct {
	Epoch int
	// Reward is the mean total reward per trajectory of the epoch (the
	// "epoch reward" axis of Fig. 5).
	Reward float64
	// Trajectories, Solutions and DeadEnds count path outcomes.
	Trajectories int
	Solutions    int
	DeadEnds     int
	// BestCost is the best solution cost found so far (0 when none yet).
	BestCost float64
	// PolicyLoss/ValueLoss/KL summarize the PPO update.
	PolicyLoss float64
	ValueLoss  float64
	ApproxKL   float64
	// Entropy and ClipFraction summarize the policy distribution's health
	// during the update; PolicyIters counts the gradient iterations
	// actually run and EarlyStopped records whether the KL bound cut them
	// short (SpinningUp's early-stopping convention).
	Entropy      float64 `json:",omitempty"`
	ClipFraction float64 `json:",omitempty"`
	PolicyIters  int     `json:",omitempty"`
	EarlyStopped bool    `json:",omitempty"`
	// AdamSteps is the lifetime actor+critic optimizer update count after
	// this epoch.
	AdamSteps int `json:",omitempty"`
	// EnvSteps is the number of environment steps trained on this epoch
	// (the merged batch size); EnvResets counts construction resets
	// (solutions + dead ends + re-arms) across all workers this epoch.
	EnvSteps  int `json:",omitempty"`
	EnvResets int `json:",omitempty"`
	// NBFCalls counts the recovery simulations the failure analyzer ran
	// this epoch (Algorithm 3 scenario throughput; cache hits excluded).
	NBFCalls int `json:",omitempty"`
	// Panics lists the recovered panics of quarantined workers this epoch
	// (empty in a healthy epoch); their step quota was rebalanced across
	// the surviving workers.
	Panics []string `json:",omitempty"`
	// Divergences counts NaN-watchdog rollbacks during this epoch's PPO
	// update; each one halved both learning rates.
	Divergences int `json:",omitempty"`
	// Duration is the wall-clock time of the epoch (exploration +
	// update); the paper reports ~39 s/epoch for ORION and ~10 s for ADS
	// on its Python stack.
	Duration time.Duration
	// ExploreTime is the wall-clock of the epoch's exploration, including
	// the re-collection of quarantined workers' steps; UpdateTime is that
	// of the PPO update, including watchdog rollbacks and retries. The
	// residual Duration − ExploreTime − UpdateTime is the epoch's
	// bookkeeping: buffer merges, replica sync, best-plan and counter
	// collection.
	ExploreTime time.Duration `json:",omitempty"`
	UpdateTime  time.Duration `json:",omitempty"`
	// AnalysisTime is the failure-analysis wall-clock summed across the
	// epoch's workers — the Algorithm 3 share of the epoch cost.
	AnalysisTime time.Duration `json:",omitempty"`
	// AnalysisCacheHits / AnalysisCacheMisses count verdict-cache lookups
	// during the epoch (zero when no cache is configured).
	AnalysisCacheHits   int `json:",omitempty"`
	AnalysisCacheMisses int `json:",omitempty"`
}

// Report is the full training outcome.
type Report struct {
	Best   *Solution
	Epochs []EpochStats
	// TotalNBFCalls counts recovery simulations across all workers.
	TotalNBFCalls int
	// FinalWeights snapshots the trained policy/value networks; feed them
	// into Config.InitialWeights to continue training or to plan related
	// problem instances without starting cold.
	FinalWeights [][]float64
	// Interrupted is true when training stopped early because the context
	// was cancelled (deadline or signal). Epochs then holds only the
	// completed epochs; the in-flight epoch was discarded so that a
	// checkpoint-resumed run stays bit-identical to an uninterrupted one.
	Interrupted bool
	// Warm reports the warm-start pruning outcome when Config.WarmStart was
	// set (nil for from-scratch runs).
	Warm *WarmStartInfo
}

// GuaranteeMet reports whether any recorded solution satisfied the goal.
func (r *Report) GuaranteeMet() bool { return r.Best != nil }

// Planner runs NPTSN's training loop (Algorithm 2) over a problem.
type Planner struct {
	prob *Problem
	cfg  Config

	// hooks are test-only injection points (fault injection, epoch fences).
	hooks plannerHooks
}

// plannerHooks lets resilience tests inject faults deterministically.
type plannerHooks struct {
	// explorePanic runs at the start of each worker's exploration; a test
	// hook may panic to simulate a crashing worker.
	explorePanic func(epoch, worker int)
	// afterEpoch runs after each completed epoch (e.g. to cancel a ctx).
	afterEpoch func(epoch int)
}

// NewPlanner validates inputs and builds a planner.
func NewPlanner(prob *Problem, cfg Config) (*Planner, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Planner{prob: prob, cfg: cfg}, nil
}

// worker bundles one exploration worker's replica state.
type worker struct {
	env  *Env
	nets *Nets
	src  *rng.Source
	rng  *rand.Rand
	buf  *rl.Buffer

	// batch, when non-nil, routes the worker's policy/value evaluations
	// through the shared batching barrier instead of its own nets (in that
	// mode nets aliases the global networks and is never called directly).
	batch *policyBatcher
	// scratch holds the worker's action-space vectors: batched logits land
	// in scratch.Logits, masking/softmax/log-softmax reuse the rest. One
	// arena per worker keeps every exploration step allocation-free.
	scratch *nn.Scratch
	// batchVal is the critic-value destination handed to batch.eval (a
	// worker field rather than a loop local so taking its address does not
	// allocate).
	batchVal float64

	// maskArena backs the per-step action-mask copies stored in buf. The
	// buffer retains every mask until the epoch's PPO update consumes it,
	// so the copies are carved out of one chunk instead of one allocation
	// per step; maskOff resets when the buffer is replaced.
	maskArena []bool
	maskOff   int

	trajectories int
	solutions    int
	deadEnds     int
	err          error
	panicMsg     string
	interrupted  bool
}

// copyMask stores a stable copy of src in the worker's mask arena. A full
// arena is replaced by a fresh chunk — slices carved earlier stay valid in
// the buffer.
func (w *worker) copyMask(src []bool) []bool {
	if len(w.maskArena)-w.maskOff < len(src) {
		n := 256 * len(src)
		if n < 4096 {
			n = 4096
		}
		w.maskArena = make([]bool, n)
		w.maskOff = 0
	}
	dst := w.maskArena[w.maskOff : w.maskOff+len(src) : w.maskOff+len(src)]
	w.maskOff += len(src)
	copy(dst, src)
	return dst
}

// explore gathers `steps` environment steps into the worker's buffer
// (Algorithm 2 lines 4-18, per processor). It stops early when ctx is
// cancelled, leaving the buffer in an undefined (possibly unfinished)
// state; the planner discards the whole epoch in that case.
func (w *worker) explore(ctx context.Context, steps int) {
	if w.batch != nil {
		// Join the batching barrier for the duration of this round. The
		// deferred depart runs on every exit — normal return, error, ctx
		// cancellation or panic — *before* the planner's panic recovery, so
		// a dying worker can never strand the others at the barrier.
		w.batch.join()
		defer w.batch.depart()
	}
	for j := 0; j < steps; j++ {
		if ctx.Err() != nil {
			w.interrupted = true
			return
		}
		obs := w.env.Observation()
		mask := w.copyMask(w.env.Mask())
		if allFalse(mask) {
			// The empty start state offers no actions at all — the problem
			// is unsolvable by construction; stop this worker's epoch.
			w.err = fmt.Errorf("planner: no valid actions from the start state")
			return
		}
		var logits []float64
		if w.batch != nil {
			// Blocks until every active worker submitted its observation,
			// then one batched forward fills logits and batchVal. Row i of
			// the batch is bit-identical to a single forward of obs[i], and
			// the action below is drawn from this worker's own RNG stream,
			// so batch composition cannot influence the trajectory.
			w.batch.eval(obs, w.scratch.Logits, &w.batchVal)
			logits = w.scratch.Logits
		} else {
			logits = w.nets.ForwardPolicy(obs)
		}
		masked := nn.MaskLogitsInto(w.scratch.Masked, logits, mask)
		probs := nn.SoftmaxInto(w.scratch.Probs, masked)
		action := nn.SampleCategorical(w.rng, probs)
		logp := nn.LogSoftmaxInto(w.scratch.LogProbs, masked)[action]
		value := w.batchVal
		if w.batch == nil {
			value = w.nets.ForwardValue(obs)
		}

		reward, outcome, err := w.env.StepContext(ctx, action)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				w.interrupted = true
			} else {
				w.err = err
			}
			return
		}
		w.buf.Store(rl.Step{
			Obs: obs, Action: action, Mask: mask,
			LogP: logp, Value: value, Reward: reward,
		})
		switch outcome {
		case OutcomeSolved:
			w.trajectories++
			w.solutions++
			w.buf.FinishPath(0)
		case OutcomeDeadEnd:
			w.trajectories++
			w.deadEnds++
			w.buf.FinishPath(0)
		}
	}
	// Bootstrap the value of a cut-off trajectory. A non-empty trailing
	// partial path counts for reward averaging; when the epoch boundary
	// coincided with a path end, FinishPath records nothing and neither
	// does the counter (a phantom trajectory would deflate the epoch
	// reward).
	before := w.buf.Paths()
	boot := 0.0
	if w.batch != nil {
		w.batch.eval(w.env.Observation(), w.scratch.Logits, &w.batchVal)
		boot = w.batchVal
	} else {
		boot = w.nets.ForwardValue(w.env.Observation())
	}
	w.buf.FinishPath(boot)
	if w.buf.Paths() > before {
		w.trajectories++
	}
}

func allFalse(mask []bool) bool {
	for _, m := range mask {
		if m {
			return false
		}
	}
	return true
}

// Plan trains the decision maker and returns the best TSSDN found together
// with the per-epoch training statistics.
func (p *Planner) Plan() (*Report, error) {
	return p.PlanContext(context.Background())
}

// PlanContext is Plan with cancellation and resilience semantics:
//
//   - When ctx is cancelled (deadline, SIGINT handler), the in-flight epoch
//     is discarded, the last completed epoch is checkpointed (when
//     Config.CheckpointFunc is set), and the report collected so far is
//     returned with Interrupted set — no error.
//   - A worker that panics is quarantined for the epoch: its partial data
//     is dropped, its step quota is re-collected by the surviving workers,
//     the panic is surfaced in EpochStats.Panics, and its environment is
//     reset so it rejoins the next epoch. Training fails only when every
//     worker panicked.
//   - A PPO update that diverges (NaN/Inf losses or weights) is rolled
//     back and retried with halved learning rates up to
//     Config.DivergenceRetries times; exhausting the budget returns an
//     error wrapping rl.ErrDiverged with the networks left at the last
//     good weights.
func (p *Planner) PlanContext(ctx context.Context) (*Report, error) {
	global, err := p.buildNets(rand.New(rand.NewSource(p.cfg.Seed)))
	if err != nil {
		return nil, err
	}
	if p.cfg.InitialWeights != nil {
		if err := global.ImportWeights(p.cfg.InitialWeights); err != nil {
			return nil, fmt.Errorf("planner: warm start: %w", err)
		}
	}
	ppo, err := rl.NewPPO(p.cfg.ppoConfig())
	if err != nil {
		return nil, err
	}

	// One verdict cache shared by all exploration workers, so a scenario
	// simulated by any worker is a hit for every other one. A caller-owned
	// SharedAnalyzerCache takes precedence, letting warm verdicts from a
	// base plan's run serve its delta re-plans.
	cache := p.cfg.SharedAnalyzerCache
	if cache == nil && p.cfg.AnalyzerCacheSize > 0 {
		cache = failure.NewCache(p.cfg.AnalyzerCacheSize)
	}

	// Batched exploration (the default) centralizes all policy/value
	// evaluation on the global networks behind one barrier, so the workers
	// need no replica networks at all; the unbatched escape hatch keeps the
	// original one-replica-per-worker layout. Trajectories are bit-identical
	// either way: between updates every replica equals the global weights,
	// and the batched forward is row-wise identical to single forwards.
	var batch *policyBatcher
	if !p.cfg.UnbatchedExploration {
		batch = newPolicyBatcher(global)
	}
	workers := make([]*worker, p.cfg.Workers)
	for i := range workers {
		src := rng.New(p.cfg.Seed + int64(i)*7919 + 1)
		env, err := NewEnvWithCache(p.prob, p.cfg, p.cfg.Seed+int64(i)*104729+2, cache)
		if err != nil {
			return nil, err
		}
		nets := global
		if batch == nil {
			nets, err = p.buildNets(rand.New(rand.NewSource(p.cfg.Seed)))
			if err != nil {
				return nil, err
			}
			nets.SyncFrom(global)
		}
		workers[i] = &worker{
			env: env, nets: nets, src: src, rng: rand.New(src),
			batch: batch, scratch: nn.NewScratch(global.ActionSpace()),
		}
	}

	var pm *plannerMetrics
	if p.cfg.Metrics != nil {
		pm = newPlannerMetrics(p.cfg.Metrics)
	}
	emit := func(e obsv.Event) error {
		if p.cfg.Events == nil {
			return nil
		}
		if err := p.cfg.Events.Emit(e); err != nil {
			return fmt.Errorf("planner: event sink: %w", err)
		}
		return nil
	}

	report := &Report{}
	if p.cfg.WarmStart != nil {
		info := workers[0].env.WarmInfo()
		report.Warm = &info
		if p.cfg.OnWarmStart != nil {
			p.cfg.OnWarmStart(info)
		}
	}
	startEpoch := 1
	if p.cfg.Resume != nil {
		restoreStart := time.Now()
		if err := p.restore(p.cfg.Resume, global, ppo, workers, report); err != nil {
			return nil, err
		}
		restoreDur := time.Since(restoreStart)
		if pm != nil {
			pm.ckptLoad.Observe(restoreDur.Seconds())
		}
		if err := emit(durationEvent(obsv.EventCheckpointLoad, p.cfg.Resume.Epoch, restoreDur)); err != nil {
			return nil, err
		}
		startEpoch = p.cfg.Resume.Epoch + 1
	} else if workers[0].env.Solved() {
		// The initial state already satisfies the goal: a trivial problem
		// from the empty network, or a warm seed that survived the delta
		// intact (the instant-solve fast path of incremental re-planning).
		report.Best = &Solution{
			Topology:   workers[0].env.State().Topo.Clone(),
			Assignment: workers[0].env.State().Assign.Clone(),
			Cost:       workers[0].env.Cost(),
		}
		return report, nil
	}

	stepsPerWorker := p.cfg.MaxStep / p.cfg.Workers
	if stepsPerWorker == 0 {
		stepsPerWorker = 1 // unreachable: Validate rejects Workers > MaxStep
	}

	var lastCkpt *Checkpoint
	lastWritten := 0

	// writeCkpt runs CheckpointFunc under the checkpoint-save telemetry.
	writeCkpt := func(ck *Checkpoint) error {
		saveStart := time.Now()
		if err := p.cfg.CheckpointFunc(ck); err != nil {
			return err
		}
		saveDur := time.Since(saveStart)
		if pm != nil {
			pm.ckptSave.Observe(saveDur.Seconds())
		}
		return emit(durationEvent(obsv.EventCheckpointSave, ck.Epoch, saveDur))
	}

	// sumAnalysis totals the per-worker analysis counters; per-epoch deltas
	// go into EpochStats.
	sumAnalysis := func() (d time.Duration, hits, misses int) {
		for _, w := range workers {
			wd, wh, wm := w.env.AnalysisStats()
			d += wd
			hits += wh
			misses += wm
		}
		return d, hits, misses
	}
	// sumEnv totals the per-worker environment reset and NBF-call
	// counters; per-epoch deltas go into EpochStats.
	sumEnv := func() (resets, nbfCalls int) {
		for _, w := range workers {
			resets += w.env.Resets
			nbfCalls += w.env.NBFCalls
		}
		return resets, nbfCalls
	}

	if err := emit(obsv.Event{Type: obsv.EventRunStart, V: map[string]float64{
		"epochs":      float64(p.cfg.MaxEpoch),
		"steps":       float64(p.cfg.MaxStep),
		"workers":     float64(p.cfg.Workers),
		"seed":        float64(p.cfg.Seed),
		"start_epoch": float64(startEpoch),
	}}); err != nil {
		return nil, err
	}

	for epoch := startEpoch; epoch <= p.cfg.MaxEpoch; epoch++ {
		if ctx.Err() != nil {
			report.Interrupted = true
			break
		}
		epochStart := time.Now()
		d0, h0, m0 := sumAnalysis()
		r0, n0 := sumEnv()
		var wg sync.WaitGroup
		for i, w := range workers {
			w.buf = rl.NewBuffer(p.cfg.Discount, p.cfg.GAELambda)
			w.maskOff = 0 // the previous epoch's buffer is gone; reuse the arena
			w.trajectories, w.solutions, w.deadEnds = 0, 0, 0
			w.err, w.panicMsg, w.interrupted = nil, "", false
			wg.Add(1)
			go p.runWorker(ctx, &wg, w, epoch, i, stepsPerWorker)
		}
		wg.Wait()
		if ctx.Err() != nil {
			// Discard the partial epoch: buffers may hold unfinished paths
			// and an update on them would break resume reproducibility.
			report.Interrupted = true
			break
		}

		es := EpochStats{Epoch: epoch}
		var healthy []*worker
		for _, w := range workers {
			if w.panicMsg != "" {
				es.Panics = append(es.Panics, w.panicMsg)
				continue
			}
			healthy = append(healthy, w)
		}
		if len(healthy) == 0 {
			return nil, fmt.Errorf("planner: epoch %d: all %d workers panicked: %s",
				epoch, len(workers), strings.Join(es.Panics, "; "))
		}
		// Rebalance the quarantined workers' step quota across survivors.
		if missing := (len(workers) - len(healthy)) * stepsPerWorker; missing > 0 {
			p.topUp(ctx, healthy, epoch, missing, &es)
			if ctx.Err() != nil {
				report.Interrupted = true
				break
			}
		}
		es.ExploreTime = time.Since(epochStart)

		merged := rl.NewBuffer(p.cfg.Discount, p.cfg.GAELambda)
		for _, w := range workers {
			if w.panicMsg != "" {
				continue // quarantined this epoch (initial round or top-up)
			}
			if w.err != nil {
				return nil, w.err
			}
			if err := merged.Merge(w.buf); err != nil {
				return nil, err
			}
			es.Trajectories += w.trajectories
			es.Solutions += w.solutions
			es.DeadEnds += w.deadEnds
		}
		if merged.Len() == 0 {
			return nil, fmt.Errorf("planner: epoch %d: no exploration data survived (%d workers panicked)",
				epoch, len(es.Panics))
		}
		es.Reward = merged.EpochReward()
		es.EnvSteps = merged.Len()

		// Gradient update on the merged batch (equivalent to averaging the
		// per-worker gradient estimators, §IV-C) under the divergence
		// watchdog, then synchronize replicas.
		updateStart := time.Now()
		stats, recovery, err := ppo.UpdateWithRecovery(global, merged, p.cfg.DivergenceRetries)
		es.UpdateTime = time.Since(updateStart)
		if err != nil {
			return nil, fmt.Errorf("planner: epoch %d: %w", epoch, err)
		}
		es.Divergences = recovery.Rollbacks
		es.PolicyLoss, es.ValueLoss, es.ApproxKL = stats.PolicyLoss, stats.ValueLoss, stats.ApproxKL
		es.Entropy, es.ClipFraction = stats.Entropy, stats.ClipFraction
		es.PolicyIters, es.EarlyStopped = stats.PiIters, stats.EarlyStopped
		actorSteps, criticSteps := ppo.AdamSteps()
		es.AdamSteps = actorSteps + criticSteps
		if recovery.Rollbacks > 0 {
			if err := emit(obsv.Event{Type: obsv.EventWatchdogRollback, Epoch: epoch, V: map[string]float64{
				"rollbacks": float64(recovery.Rollbacks),
				"actor_lr":  recovery.ActorLR,
				"critic_lr": recovery.CriticLR,
			}}); err != nil {
				return nil, err
			}
		}
		for _, w := range workers {
			if w.nets != global { // batched workers share the global nets
				w.nets.SyncFrom(global)
			}
		}
		// Re-arm quarantined workers with a clean environment for the next
		// epoch (a panic may have left the construction state mid-action).
		for _, w := range workers {
			if w.panicMsg != "" {
				if err := w.env.reset(ctx); err != nil {
					return nil, fmt.Errorf("planner: resetting panicked worker: %w", err)
				}
			}
		}

		if best := p.bestOf(workers); best != nil {
			if report.Best == nil || best.Cost < report.Best.Cost {
				b := best.Clone()
				b.FoundAtEpoch = epoch
				report.Best = b
			}
			es.BestCost = report.Best.Cost
		}
		d1, h1, m1 := sumAnalysis()
		es.AnalysisTime = d1 - d0
		es.AnalysisCacheHits = h1 - h0
		es.AnalysisCacheMisses = m1 - m0
		r1, n1 := sumEnv()
		es.EnvResets = r1 - r0
		es.NBFCalls = n1 - n0
		es.Duration = time.Since(epochStart)
		report.Epochs = append(report.Epochs, es)

		if p.cfg.Progress != nil {
			p.cfg.Progress(es)
		}
		pm.recordEpoch(es, cache)
		for _, msg := range es.Panics {
			if err := emit(obsv.Event{Type: obsv.EventQuarantine, Epoch: epoch, Msg: msg}); err != nil {
				return nil, err
			}
		}
		if err := emit(epochEvent(es)); err != nil {
			return nil, err
		}

		if p.cfg.CheckpointFunc != nil {
			lastCkpt = p.capture(epoch, global, ppo, workers, report)
			if epoch%p.cfg.CheckpointEvery == 0 {
				if err := writeCkpt(lastCkpt); err != nil {
					return nil, fmt.Errorf("planner: checkpoint at epoch %d: %w", epoch, err)
				}
				lastWritten = epoch
			}
		}
		if p.hooks.afterEpoch != nil {
			p.hooks.afterEpoch(epoch)
		}
	}

	// Shutdown checkpoint: persist the last completed epoch if the
	// periodic schedule has not already written it.
	if p.cfg.CheckpointFunc != nil && lastCkpt != nil && lastWritten != lastCkpt.Epoch {
		if err := writeCkpt(lastCkpt); err != nil {
			return nil, fmt.Errorf("planner: shutdown checkpoint: %w", err)
		}
	}

	for _, w := range workers {
		report.TotalNBFCalls += w.env.NBFCalls
	}
	report.FinalWeights = global.ExportWeights()

	endV := map[string]float64{
		"epochs":      float64(len(report.Epochs)),
		"interrupted": 0,
		"nbf_calls":   float64(report.TotalNBFCalls),
	}
	if report.Interrupted {
		endV["interrupted"] = 1
	}
	if report.Best != nil {
		endV["best_cost"] = report.Best.Cost
	}
	if err := emit(obsv.Event{Type: obsv.EventRunEnd, V: endV}); err != nil {
		return nil, err
	}
	return report, nil
}

// runWorker executes one worker's exploration with panic isolation: a
// panic is recovered, recorded on the worker, and handled by the epoch
// loop (quarantine + step rebalancing) instead of crashing the run.
func (p *Planner) runWorker(ctx context.Context, wg *sync.WaitGroup, w *worker, epoch, idx, steps int) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			w.panicMsg = fmt.Sprintf("worker %d: %v", idx, r)
		}
	}()
	if p.hooks.explorePanic != nil {
		p.hooks.explorePanic(epoch, idx)
	}
	if p.cfg.ExploreHook != nil {
		p.cfg.ExploreHook(ctx, epoch, idx)
		if ctx.Err() != nil {
			// A hook that blocked until cancellation (fault.KindHang) must
			// not start exploring on the dead context.
			w.interrupted = true
			return
		}
	}
	w.explore(ctx, steps)
}

// topUp redistributes `missing` exploration steps across the surviving
// workers after quarantining panicked ones, so the epoch still trains on
// the configured MaxStep budget. A survivor that panics during the top-up
// round is quarantined too (without further rebalancing).
func (p *Planner) topUp(ctx context.Context, healthy []*worker, epoch, missing int, es *EpochStats) {
	share := missing / len(healthy)
	rem := missing % len(healthy)
	var wg sync.WaitGroup
	for i, w := range healthy {
		extra := share
		if i < rem {
			extra++
		}
		if extra == 0 {
			continue
		}
		wg.Add(1)
		go p.runWorker(ctx, &wg, w, epoch, i, extra)
	}
	wg.Wait()
	for _, w := range healthy {
		if w.panicMsg != "" {
			es.Panics = append(es.Panics, w.panicMsg)
		}
	}
}

// buildNets constructs the network stack for the problem geometry.
func (p *Planner) buildNets(rng *rand.Rand) (*Nets, error) {
	soag, err := NewSOAG(p.prob, p.cfg.K)
	if err != nil {
		return nil, err
	}
	enc := NewEncoderWithOptions(p.prob, p.cfg.K, p.cfg.PerFlowEncoding)
	return NewNets(rng, enc, soag.ActionSpaceSize(), p.cfg)
}

// bestOf returns the cheapest solution across workers (nil if none).
func (p *Planner) bestOf(workers []*worker) *Solution {
	var best *Solution
	for _, w := range workers {
		b := w.env.Best()
		if b == nil {
			continue
		}
		if best == nil || b.Cost < best.Cost {
			best = b
		}
	}
	return best
}
