package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/rng"
	"repro/internal/scenarios"
	"repro/internal/tsn"
)

// train-orion sizing. Everything but MaxStep is Table II; the steps per
// epoch are stated in the run header so epoch times can be scaled to the
// paper's 2048.
const (
	trainFlows   = 20
	trainSteps   = 64
	trainWorkers = 2
	// setEpochs is how many epochs an untraced run trains each flow set
	// for. It trains one flow set after another until --seconds are used
	// up, so a run's median epoch spans several flow sets.
	setEpochs = 2
	// tracedEpochs is the epoch count of a traced run; quality.plan_cost is
	// the best plan after them.
	tracedEpochs = 4
	// trainSetups is how many set-ups are timed for setup_s, one per flow
	// set of the run (setSeed), each after setupIdle without work. A
	// set-up takes about 3 ms, runs cold at the start of a planning run
	// and costs more for some flow sets than for others (their first
	// failure analysis). Back to back, the set-ups of one flow set run
	// warm, sample only a few tens of milliseconds of a host whose speed
	// can change from one millisecond to the next, and carry the seed's
	// flow set into setup_s.
	trainSetups = 61
	setupIdle   = 30 * time.Millisecond
	reliability = 1e-6
)

// setSeed is the seed of flow set f of a run: its TT flows and its
// training seed. Set 0 uses the run's seed itself.
func setSeed(seed int64, f int) int64 {
	if s := seed + int64(f)*1_000_003; s != 0 {
		return s
	}
	return 1
}

// trainConfig is the Table II configuration with the benchmark's cuts.
func trainConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxStep = trainSteps
	cfg.Workers = trainWorkers
	cfg.AnalyzerCacheSize = 65536
	cfg.Seed = seed
	return cfg
}

// orionProblem builds the ORION problem with the seed's random TT flows.
func orionProblem(seed int64, mech nbf.NBF) (*core.Problem, error) {
	s, err := scenarios.ORION()
	if err != nil {
		return nil, err
	}
	return s.Problem(s.RandomFlows(trainFlows, seed), mech, reliability), nil
}

// trainSetup builds everything a planning run needs before its first
// epoch — scenario, flows, problem, planner, networks and the seeded
// environments with their first failure analysis — and returns the time it
// took. The planner repeats the network and environment build itself; this
// measures what that costs.
func trainSetup(seed int64) (time.Duration, error) {
	start := time.Now()
	prob, err := orionProblem(seed, &nbf.StatelessRecovery{})
	if err != nil {
		return 0, err
	}
	cfg := trainConfig(seed)
	if _, err := core.NewPlanner(prob, cfg); err != nil {
		return 0, err
	}
	if _, err := newRedrive(prob, cfg); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// trainOutcome is one pass over train-orion.
type trainOutcome struct {
	epochs   []core.EpochStats
	costAt   float64 // best cost after the last epoch (0 = no plan yet)
	envSteps int
	nbfCalls int
	lookups  int // verdict-cache lookups, hits and misses
	best     *core.Solution
}

// planUntraced trains the given number of epochs with core.Planner.
func planUntraced(ctx context.Context, prob *core.Problem, cfg core.Config, epochs int) (*trainOutcome, error) {
	cfg.MaxEpoch = epochs
	out := &trainOutcome{}
	cfg.Progress = func(es core.EpochStats) {
		out.epochs = append(out.epochs, es)
		out.envSteps += es.EnvSteps
		out.nbfCalls += es.NBFCalls
		out.lookups += es.AnalysisCacheHits + es.AnalysisCacheMisses
		out.costAt = es.BestCost
	}
	p, err := core.NewPlanner(prob, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := p.PlanContext(ctx)
	if err != nil {
		return nil, err
	}
	if len(out.epochs) != epochs {
		return nil, fmt.Errorf("planner stopped after %d of %d epochs", len(out.epochs), epochs)
	}
	out.best = rep.Best
	return out, nil
}

// timedNBF is a timing decorator around a recovery mechanism. It keeps
// Name and the per-worker cloning of the mechanism it wraps, so verdict
// cache keys and trajectories are those of the undecorated run.
type timedNBF struct {
	inner nbf.NBF
	calls *atomic.Int64
	nanos *atomic.Int64
}

func newTimedNBF(inner nbf.NBF) *timedNBF {
	return &timedNBF{inner: inner, calls: new(atomic.Int64), nanos: new(atomic.Int64)}
}

func (t *timedNBF) Name() string { return t.inner.Name() }

func (t *timedNBF) Recover(topo *graph.Graph, f nbf.Failure, net tsn.Network, fs tsn.FlowSet) (*tsn.State, []tsn.Pair, error) {
	start := time.Now()
	st, er, err := t.inner.Recover(topo, f, net, fs)
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return st, er, err
}

// CloneForWorker gives each analysis worker a decorator over its own
// clone of the inner mechanism; the counters stay shared.
func (t *timedNBF) CloneForWorker() nbf.NBF {
	return &timedNBF{inner: nbf.ForWorker(t.inner), calls: t.calls, nanos: t.nanos}
}

func (t *timedNBF) totals() (int64, time.Duration) {
	return t.calls.Load(), time.Duration(t.nanos.Load())
}

// redrive re-runs the planner's batched training loop through the public
// layer calls — environments, batched policy/value forward, rollout
// buffers and the PPO update — with the planner's seeding, so a traced
// epoch follows the same trajectory as an untraced one while the benchmark
// times each call. The two exploration workers step in lockstep on one
// goroutine: the batched forward is row-for-row identical to the planner's
// and each worker draws from its own RNG, so the order does not change
// what is sampled.
type redrive struct {
	cfg     core.Config
	global  *core.Nets
	ppo     *rl.PPO
	workers []*rworker
	best    *core.Solution
}

type rworker struct {
	env     *core.Env
	rng     *rand.Rand
	scratch *nn.Scratch
	buf     *rl.Buffer
	logits  []float64
}

func newRedrive(prob *core.Problem, cfg core.Config) (*redrive, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		return nil, err
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	global, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		return nil, err
	}
	ppo, err := rl.NewPPO(rl.PPOConfig{
		ClipRatio: cfg.ClipRatio, ActorLR: cfg.ActorLR, CriticLR: cfg.CriticLR,
		TrainPiIters: cfg.TrainPiIters, TrainVIters: cfg.TrainVIters, TargetKL: cfg.TargetKL,
	})
	if err != nil {
		return nil, err
	}
	cache := failure.NewCache(cfg.AnalyzerCacheSize)
	d := &redrive{cfg: cfg, global: global, ppo: ppo}
	for i := 0; i < cfg.Workers; i++ {
		src := rng.New(cfg.Seed + int64(i)*7919 + 1)
		env, err := core.NewEnvWithCache(prob, cfg, cfg.Seed+int64(i)*104729+2, cache)
		if err != nil {
			return nil, err
		}
		d.workers = append(d.workers, &rworker{
			env: env, rng: rand.New(src), scratch: nn.NewScratch(global.ActionSpace()),
			logits: make([]float64, global.ActionSpace()),
		})
	}
	return d, nil
}

// epochCounts are the per-epoch counts a traced epoch reports.
type epochCounts struct {
	envSteps, nbfCalls, analyzeCalls int
	analysis                         time.Duration
	hits, misses                     int
	piIters                          int
	observations                     int
}

// epoch runs one traced training epoch and returns its counts.
func (d *redrive) epoch(ctx context.Context, tr *tracer, n int, tnbf *timedNBF) (epochCounts, error) {
	var c epochCounts
	root := tr.begin("epoch", 0, n)
	before := d.envTotals()
	explore := tr.begin("core.explore", root, n)
	steps := d.cfg.MaxStep / d.cfg.Workers
	obs := make([]*core.Obs, len(d.workers))
	masks := make([][]bool, len(d.workers))
	logits := make([][]float64, len(d.workers))
	values := make([]float64, len(d.workers))
	for i, w := range d.workers {
		w.buf = rl.NewBuffer(d.cfg.Discount, d.cfg.GAELambda)
		logits[i] = w.logits
	}
	forward := func() {
		id := tr.begin("nn.forward", explore, n)
		d.global.ForwardPolicyValueBatch(obs, logits, values)
		tr.end(id)
		c.observations += len(obs)
	}
	for j := 0; j < steps; j++ {
		id := tr.begin("core.observe", explore, n)
		for i, w := range d.workers {
			obs[i] = w.env.Observation()
			masks[i] = append([]bool(nil), w.env.Mask()...)
		}
		tr.end(id)
		forward()
		for i, w := range d.workers {
			id := tr.begin("rl.sample", explore, n)
			masked := nn.MaskLogitsInto(w.scratch.Masked, w.logits, masks[i])
			probs := nn.SoftmaxInto(w.scratch.Probs, masked)
			action := nn.SampleCategorical(w.rng, probs)
			logp := nn.LogSoftmaxInto(w.scratch.LogProbs, masked)[action]
			tr.end(id)

			a0, _, _ := w.env.AnalysisStats()
			_, r0 := tnbf.totals()
			stepID := tr.begin("core.env_step", explore, n)
			reward, outcome, err := w.env.StepContext(ctx, action)
			tr.end(stepID)
			if err != nil {
				return c, err
			}
			a1, _, _ := w.env.AnalysisStats()
			_, r1 := tnbf.totals()
			nestTail(tr, stepID, "failure.analyze", a1-a0, "nbf.recover", r1-r0, n)

			id = tr.begin("rl.store", explore, n)
			w.buf.Store(rl.Step{Obs: obs[i], Action: action, Mask: masks[i],
				LogP: logp, Value: values[i], Reward: reward})
			if outcome == core.OutcomeSolved || outcome == core.OutcomeDeadEnd {
				w.buf.FinishPath(0)
			}
			tr.end(id)
		}
	}
	id := tr.begin("core.observe", explore, n)
	for i, w := range d.workers {
		obs[i] = w.env.Observation()
	}
	tr.end(id)
	forward()
	id = tr.begin("rl.store", explore, n)
	merged := rl.NewBuffer(d.cfg.Discount, d.cfg.GAELambda)
	for i, w := range d.workers {
		w.buf.FinishPath(values[i])
		if err := merged.Merge(w.buf); err != nil {
			return c, err
		}
	}
	tr.end(id)
	tr.end(explore)

	upd := tr.begin("rl.ppo_update", root, n)
	stats, _, err := d.ppo.UpdateWithRecovery(d.global, merged, d.cfg.DivergenceRetries)
	tr.end(upd)
	if err != nil {
		return c, err
	}
	for _, w := range d.workers {
		b := w.env.Best()
		if b != nil && (d.best == nil || b.Cost < d.best.Cost) {
			d.best = b.Clone()
		}
	}
	tr.end(root)

	after := d.envTotals()
	c.envSteps = merged.Len()
	c.nbfCalls = after.nbfCalls - before.nbfCalls
	c.analyzeCalls = after.analyzeCalls - before.analyzeCalls
	c.analysis = after.analysis - before.analysis
	c.hits = after.hits - before.hits
	c.misses = after.misses - before.misses
	c.piIters = stats.PiIters
	return c, nil
}

// nestTail records a child span of the given duration ending where its
// parent ends, and a grandchild the same way. Only the durations of the
// failure analysis and of the NBF calls inside an environment step are
// known from outside (Env.AnalysisStats and the NBF decorator), and the
// analysis is the last thing a step does, so that is where they go.
func nestTail(tr *tracer, parent int, name string, dur time.Duration, child string, childDur time.Duration, group int) {
	if tr == nil || parent == 0 || dur <= 0 {
		return
	}
	p := tr.spanByID(parent)
	end := tr.origin.Add(p.End)
	start := end.Add(-dur)
	if s := tr.origin.Add(p.Start); start.Before(s) {
		start = s
	}
	id := tr.add(name, start, end, parent, group)
	if childDur > 0 {
		cs := end.Add(-childDur)
		if cs.Before(start) {
			cs = start
		}
		tr.add(child, cs, end, id, group)
	}
}

// envSums totals the environments' counters.
type envSums struct {
	nbfCalls, analyzeCalls int
	analysis               time.Duration
	hits, misses           int
}

func (d *redrive) envTotals() envSums {
	var s envSums
	for _, w := range d.workers {
		a, h, m := w.env.AnalysisStats()
		s.analysis += a
		s.hits += h
		s.misses += m
		s.nbfCalls += w.env.NBFCalls
		s.analyzeCalls += w.env.Steps + w.env.Resets
	}
	return s
}

// certifyBest verifies and certifies a plan the way the service's accept
// gate does.
func certifyBest(ctx context.Context, prob *core.Problem, sol *core.Solution, seed int64) error {
	if err := core.VerifySolution(prob, sol); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	c := &certify.Certifier{Prob: prob, Sol: sol, Opt: certify.Options{Samples: 256, Seed: seed}}
	cert, err := c.Certify(ctx)
	if err != nil {
		return fmt.Errorf("certify: %w", err)
	}
	if !cert.OK() {
		return fmt.Errorf("certificate verdict %s", cert.Verdict)
	}
	return nil
}

// peakRSSSelfMB is this process's peak resident set in MB.
func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runTrainOrion is the train-orion workload: core.Planner on ORION with
// seeded TT flows at Table II network sizes.
func runTrainOrion(ctx context.Context, o options, h *header, r *result) error {
	h.StepsPerEpoch = trainSteps
	h.Workers = trainWorkers
	if o.trace {
		return traceTrainOrion(ctx, o, r)
	}
	setups := make([]float64, 0, trainSetups)
	for i := 0; i < trainSetups; i++ {
		time.Sleep(setupIdle)
		d, err := trainSetup(setSeed(o.seed, i))
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var rss float64
	var durs []float64
	var wall time.Duration
	steps := 0
	for f := 0; ; f++ {
		seed := setSeed(o.seed, f)
		prob, err := orionProblem(seed, &nbf.StatelessRecovery{})
		if err != nil {
			return err
		}
		u, err := planUntraced(ctx, prob, trainConfig(seed), setEpochs)
		if err != nil {
			return err
		}
		for _, es := range u.epochs {
			r.Attempted++
			durs = append(durs, es.Duration.Seconds())
			wall += es.Duration
			steps += es.EnvSteps
			if es.EnvSteps != trainSteps {
				r.fail("flow set %d epoch %d trained on %d steps, want %d", f, es.Epoch, es.EnvSteps, trainSteps)
			}
		}
		if f == 0 {
			// Read after a fixed amount of work: how many more flow sets
			// fit in --seconds depends on the machine's speed.
			rss = peakRSSSelfMB()
		}
		if u.best != nil {
			r.Attempted++
			if err := certifyBest(ctx, prob, u.best, seed); err != nil {
				r.fail("flow set %d best plan: %v", f, err)
			}
		}
		// Stop when another flow set would end further from the budget
		// than stopping now.
		el := time.Since(start)
		if el+el/time.Duration(2*(f+1)) >= budget {
			break
		}
	}
	r.set("setup_s", median(setups), "s")
	r.set("op_p50_ms", median(durs)*1000, "ms")
	r.set("ops_per_s", float64(steps)/wall.Seconds(), "1/s")
	r.set("peak_rss_mb", rss, "MB")
	return nil
}

// traceTrainOrion is the traced train-orion run: tracedEpochs untraced
// epochs of flow set 0 through core.Planner as the reference, then the
// same epochs re-driven through the public layer calls under the tracer.
// The traced epochs must reproduce the reference's env steps, NBF calls
// and plan cost exactly, and their layer self times must add up to each
// epoch's wall.
func traceTrainOrion(ctx context.Context, o options, r *result) error {
	prob, err := orionProblem(o.seed, &nbf.StatelessRecovery{})
	if err != nil {
		return err
	}
	cfg := trainConfig(o.seed)
	u, err := planUntraced(ctx, prob, cfg, tracedEpochs)
	if err != nil {
		return err
	}
	tnbf := newTimedNBF(&nbf.StatelessRecovery{})
	tprob, err := orionProblem(o.seed, tnbf)
	if err != nil {
		return err
	}
	d, err := newRedrive(tprob, cfg)
	if err != nil {
		return err
	}
	calls0, recov0 := tnbf.totals()
	tr := newTracer()
	var tot epochCounts
	for e := 1; e <= tracedEpochs; e++ {
		c, err := d.epoch(ctx, tr, e, tnbf)
		if err != nil {
			return err
		}
		tot.envSteps += c.envSteps
		tot.nbfCalls += c.nbfCalls
		tot.analyzeCalls += c.analyzeCalls
		tot.analysis += c.analysis
		tot.hits += c.hits
		tot.misses += c.misses
		tot.piIters += c.piIters
		tot.observations += c.observations
	}
	calls1, recov1 := tnbf.totals()
	spans := tr.snapshot()
	if err := tr.write(filepath.Join(o.buildDir(), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
		return err
	}

	r.Attempted = 2 * tracedEpochs
	if tot.envSteps != u.envSteps {
		r.fail("traced env steps %d, untraced %d", tot.envSteps, u.envSteps)
	}
	// The planner's workers fill the shared verdict cache concurrently, so
	// two of them can both miss on one scenario and both simulate it; the
	// lockstep re-drive never does. Verdict lookups (hits plus misses)
	// follow from the trajectory alone and must match exactly; NBF calls
	// may only be lower by the doubled misses.
	if l := tot.hits + tot.misses; l != u.lookups {
		r.fail("traced verdict lookups %d, untraced %d", l, u.lookups)
	}
	if tot.nbfCalls > u.nbfCalls {
		r.fail("traced NBF calls %d exceed untraced %d", tot.nbfCalls, u.nbfCalls)
	}
	tracedCost := 0.0
	if d.best != nil {
		tracedCost = d.best.Cost
	}
	if tracedCost != u.costAt {
		r.fail("traced best plan cost %v, untraced %v", tracedCost, u.costAt)
	}
	gaps, err := reconcile(spans, "epoch")
	if err != nil {
		return err
	}
	gap := 0.0
	for e, g := range gaps {
		gap = math.Max(gap, g)
		if g > maxGap {
			r.fail("epoch %d: layer self times miss the epoch wall by %.3f", e+1, g)
		}
	}
	// Four epochs of 64 steps may end before the first plan; that is not a
	// wrong output, and then there is nothing to certify.
	if u.best != nil {
		r.Attempted++
		if err := certifyBest(ctx, prob, u.best, o.seed); err != nil {
			r.fail("best plan: %v", err)
		}
	}

	self := selfByName(spans)
	byName := func(name string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, s.dur().Seconds())
			}
		}
		return xs
	}
	var untraced []float64
	for _, es := range u.epochs[:tracedEpochs] {
		untraced = append(untraced, es.Duration.Seconds())
	}
	epochs := float64(tracedEpochs)
	r.set("rl.ppo_update_s", median(byName("rl.ppo_update")), "s")
	r.set("rl.pi_iters", float64(tot.piIters)/epochs, "count")
	r.set("nn.forward_us", us(self["nn.forward"])/float64(tot.observations), "us")
	r.set("core.explore_s", median(byName("core.explore")), "s")
	r.set("core.env_step_us", us(self["core.env_step"])/float64(tot.envSteps), "us")
	r.set("core.epoch_residual_s", self["epoch"].Seconds()/epochs, "s")
	r.set("failure.analyze_us", us(tot.analysis)/float64(tot.analyzeCalls), "us")
	r.set("failure.calls", float64(tot.analyzeCalls)/epochs, "count")
	r.set("failure.cache_hit_ratio", ratio(tot.hits, tot.hits+tot.misses), "ratio")
	r.set("nbf.recover_us", us(recov1-recov0)/float64(max(calls1-calls0, 1)), "us")
	r.set("nbf.calls", float64(calls1-calls0)/epochs, "count")
	// The re-drive steps both workers on one goroutine where the planner
	// runs them in parallel, so this is re-drive minus planner, not the
	// cost of the spans alone.
	r.set("trace.overhead_ms", (median(byName("epoch"))-median(untraced))*1000, "ms")
	r.set("trace.reconcile_gap", gap, "ratio")
	r.set("quality.plan_cost", u.costAt, "cost")
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
