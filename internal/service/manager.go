package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/serialize"
	"repro/internal/zoo"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned when the waiting queue is at capacity
	// (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrDraining is returned once shutdown has begun (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound is returned for unknown job IDs (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
	// ErrNotTerminal is returned when a result is requested before the
	// job finished (HTTP 409).
	ErrNotTerminal = errors.New("service: job has not finished")
	// ErrPoisoned is returned for submissions whose fingerprint has
	// panicked the planner Options.PoisonPanics times — a reproducible
	// crasher that re-running cannot fix (HTTP 422).
	ErrPoisoned = errors.New("service: job fingerprint is quarantined after repeated panics")
	// ErrBaseNotFound is returned for delta submissions whose base
	// reference resolves to nothing this server knows — no job with that
	// ID, no spec with that fingerprint — and that carry no inline base
	// problem to fall back on (HTTP 404).
	ErrBaseNotFound = errors.New("service: delta base not found")
)

// Options configures a Manager.
type Options struct {
	// Workers is the number of jobs planned concurrently (default 1).
	// Each job additionally runs its own exploration goroutines
	// (PlanParams.Workers), so total parallelism is the product.
	Workers int
	// QueueSize bounds the waiting queue (default 16). With w Workers the
	// service holds at most w running + QueueSize waiting jobs; beyond
	// that, Submit returns ErrQueueFull.
	QueueSize int
	// Dir, when non-empty, persists every terminal job as an atomic JSON
	// record and re-serves the records (and re-seeds the plan cache) on
	// restart. Empty keeps everything in memory.
	Dir string
	// DefaultTimeout bounds each job's planning run unless the request
	// carries its own TimeoutSec (0 = unbounded).
	DefaultTimeout time.Duration
	// StuckTimeout arms the stuck-job watchdog: a running job whose
	// progress heartbeat (one beat per completed training epoch) goes
	// quiet for this long is cancelled and marked failed. Zero disables
	// the watchdog. Set it well above the expected epoch duration — and
	// above the certification audit, which beats only once at its start.
	StuckTimeout time.Duration
	// MaxAttempts bounds how many server lives may start the same
	// journaled job: a job interrupted by crashes this many times is
	// failed on the next boot instead of re-queued (default 3).
	MaxAttempts int
	// PoisonPanics is the per-fingerprint panic budget: once planning a
	// fingerprint has panicked this many times, further submissions of it
	// are refused with ErrPoisoned (default 3).
	PoisonPanics int
	// VerdictCacheSize bounds the server-wide failure-analysis verdict
	// cache every planning run shares (0 = 65536 entries, negative =
	// disabled, falling back to each job's own AnalyzerCache). Verdict
	// keys include the full problem context, so sharing across jobs is
	// safe and never changes a run's trajectory; its payoff is delta
	// re-planning, where most of a base plan's scenarios recur verbatim.
	VerdictCacheSize int
	// Progress, when non-nil, observes every job's per-epoch progress
	// (after the job's own status/heartbeat bookkeeping). It is called
	// outside all engine locks and — unlike the raw planner callback — a
	// slow or blocking observer does not starve the job's heartbeat: the
	// manager keeps beating on the job's behalf while the observer runs,
	// so the stuck-job watchdog only fires on genuinely stuck planning.
	Progress func(jobID string, es core.EpochStats)
	// Fault, when non-nil, arms deterministic fault injection across the
	// engine: filesystem faults in the record store and panic/hang/delay
	// faults in the planning path (fault.PointPlan once per job run,
	// fault.PointExplore once per exploration worker round). Nil in
	// production.
	Fault *fault.Injector
	// Metrics receives the nptsn_service_* series and, shared with every
	// job's planner, the nptsn_* training series. Nil disables metrics.
	Metrics *obsv.Registry
	// Events receives JSON-lines job lifecycle events (see the Event*
	// constants). Unlike the planner's sink, an emission error does not
	// abort anything; it is counted on nptsn_service_event_errors_total.
	Events obsv.Sink
	// Zoo, when non-nil, arms the inference-only fast path: before
	// training a job, the manager looks up the nearest geometry-compatible
	// pretrained policy, rolls it out greedily, and serves the plan with
	// zero training epochs when the certifier accepts it. A rejected or
	// missing candidate falls back to warm/cold training; the attempt
	// chain is recorded on the job's status.
	Zoo *zoo.Zoo

	// testBeforeRun seeds Manager.testBeforeRun before the worker pool
	// starts — the only way for tests to intercept jobs re-queued from the
	// journal during New, which may begin running before New returns.
	testBeforeRun func(*job)
	// testZooTamper, when set by tests, mutates the zoo rollout's candidate
	// solution before the accept gate — the deterministic way to force a
	// certificate failure and exercise the zoo → warm/cold fallback.
	testZooTamper func(*core.Solution)
}

// Manager is the planning job engine: a bounded queue feeding a fixed
// worker pool of independent Planners, with a fingerprint plan cache in
// front and a persistent result store behind.
type Manager struct {
	opt Options
	met *metrics

	// verdicts is the server-wide shared analyzer cache (nil when
	// disabled); immutable after New.
	verdicts *failure.Cache

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string            // submission order, for List
	cache    map[string]*Result  // fingerprint → finished result
	specs    map[string]*Request // fingerprint → self-contained request spec, for delta bases
	panics   map[string]int      // fingerprint → contained planning panics
	draining bool
	// recent is a ring of the last recentRunWindow run durations, feeding
	// the Retry-After estimate; recentIdx is the next overwrite slot.
	recent    []time.Duration
	recentIdx int

	queue     chan *job
	wg        sync.WaitGroup // worker goroutines
	watchStop chan struct{}  // closed by Shutdown; stops the watchdog

	// testBeforeRun, when set by tests, runs after a job transitions to
	// running and before planning starts — the hook tests use to hold a
	// job in the running state deterministically.
	testBeforeRun func(*job)
	// testZooTamper mirrors Options.testZooTamper.
	testZooTamper func(*core.Solution)
}

// New builds a Manager, loads persisted records when Options.Dir is set
// (quarantining undecodable files, re-serving terminal jobs, re-queuing
// journaled live jobs from earlier lives of the server), and starts the
// worker pool and — when StuckTimeout is set — the stuck-job watchdog.
func New(opt Options) (*Manager, error) {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.QueueSize <= 0 {
		opt.QueueSize = 16
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	if opt.PoisonPanics <= 0 {
		opt.PoisonPanics = 3
	}
	if opt.VerdictCacheSize == 0 {
		opt.VerdictCacheSize = 65536
	}
	var recs []record
	var quarantined []string
	if opt.Dir != "" {
		var err error
		recs, quarantined, err = loadRecords(opt.Dir)
		if err != nil {
			return nil, err
		}
	}
	m := &Manager{
		opt:           opt,
		met:           newMetrics(opt.Metrics),
		jobs:          make(map[string]*job),
		cache:         make(map[string]*Result),
		specs:         make(map[string]*Request),
		panics:        make(map[string]int),
		watchStop:     make(chan struct{}),
		testBeforeRun: opt.testBeforeRun,
		testZooTamper: opt.testZooTamper,
	}
	if opt.Zoo != nil {
		m.met.setZooSize(opt.Zoo.Len())
	}
	if opt.VerdictCacheSize > 0 {
		m.verdicts = failure.NewCache(opt.VerdictCacheSize)
	}
	var pending []record
	for _, rec := range recs {
		if !rec.Status.State.Terminal() {
			pending = append(pending, rec)
			continue
		}
		j := &job{
			id:          rec.Status.ID,
			fingerprint: rec.Status.Fingerprint,
			certify:     rec.Status.Certify,
			attempts:    rec.Attempts,
			state:       rec.Status.State,
			submitted:   rec.Status.SubmittedAt,
			progress:    rec.Status.Progress,
			errMsg:      rec.Status.Error,
			cacheHit:    rec.Status.CacheHit,
			provenance:  rec.Status.Provenance,
			chain:       rec.Status.Chain,
			result:      rec.Result,
			terminal:    make(chan struct{}),
		}
		if rec.Status.StartedAt != nil {
			j.started = *rec.Status.StartedAt
		}
		if rec.Status.FinishedAt != nil {
			j.finished = *rec.Status.FinishedAt
		}
		close(j.terminal)
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		// Re-seed the plan cache from done, uninterrupted results so a
		// re-submission after restart is still a hit. Cache-hit records
		// count too: they carry a full copy of the finished result, and the
		// record of the job that actually planned it may have been deleted —
		// excluding them used to orphan the fingerprint after a restart.
		if rec.Status.State == StateDone && rec.Result != nil && !rec.Result.Interrupted {
			m.cache[rec.Status.Fingerprint] = rec.Result
		}
		// Re-seed the spec registry so the fingerprint keeps working as a
		// delta base across restarts.
		if rec.Status.State == StateDone && rec.Request != nil {
			m.specs[rec.Status.Fingerprint] = rec.Request
		}
	}
	// Size the queue so every journaled live job fits on top of the
	// configured capacity: a restart must never drop accepted work to
	// backpressure.
	m.queue = make(chan *job, opt.QueueSize+len(pending))
	for _, rec := range pending {
		m.requeue(rec)
	}
	if len(quarantined) > 0 {
		m.met.addSkipped(len(quarantined))
		m.emit(obsv.Event{Type: EventStoreCorrupt, Msg: strings.Join(quarantined, "; "),
			V: map[string]float64{"records": float64(len(quarantined))}})
	}
	for i := 0; i < opt.Workers; i++ {
		m.wg.Add(1)
		go m.workerLoop()
	}
	if opt.StuckTimeout > 0 {
		go m.watchdog()
	}
	return m, nil
}

// requeue re-enters one journaled live job from a previous server life
// into the queue under its original ID, or fails it when the journal has
// been retried MaxAttempts times already (a job that crashes the server
// every time it runs must not crash-loop forever). Runs during New, before
// the worker pool starts.
func (m *Manager) requeue(rec record) {
	j := &job{
		id:          rec.Status.ID,
		fingerprint: rec.Status.Fingerprint,
		submitted:   rec.Status.SubmittedAt,
		attempts:    rec.Attempts + 1,
		terminal:    make(chan struct{}),
	}
	prep, err := prepare(*rec.Request)
	switch {
	case err != nil:
		// The journaled request prepared at submit time; if it no longer
		// does (a format change across the restart), fail it visibly
		// rather than dropping it.
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("restart recovery: %v", err)
		j.finished = time.Now().UTC()
		close(j.terminal)
	case j.attempts > m.opt.MaxAttempts:
		j.fingerprint = prep.fingerprint
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("abandoned: %d attempts were interrupted by crashes or restarts (max %d)",
			rec.Attempts, m.opt.MaxAttempts)
		j.finished = time.Now().UTC()
		close(j.terminal)
	default:
		j.fingerprint = prep.fingerprint
		j.prob = prep.prob
		j.cfg = prep.cfg
		j.certify = prep.certify
		j.certSamples = prep.certSamples
		j.timeout = prep.timeout
		j.req = rec.Request
		j.state = StateQueued
		j.progress.TotalEpochs = prep.cfg.MaxEpoch
		m.specs[prep.fingerprint] = rec.Request
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if j.state == StateQueued {
		m.queue <- j // capacity reserved above; never blocks
		m.met.incRequeued()
		m.met.addQueueDepth(1)
		m.emit(obsv.Event{Type: EventRequeued, Msg: j.id, V: map[string]float64{"attempt": float64(j.attempts)}})
	} else {
		m.met.incFailed()
		m.met.incPoisoned()
		m.emit(obsv.Event{Type: EventPoisoned, Msg: j.id, V: map[string]float64{"attempts": float64(rec.Attempts)}})
	}
	// Either way the on-disk journal advances: the attempt counter is
	// bumped before the job runs (so a crash loop counts every life), and
	// an abandoned job's terminal record replaces its journal entry.
	m.persist(j)
}

// Submit validates a request and either answers it from the plan cache or
// enqueues a new job. It returns the job's initial status snapshot.
//
// A delta request (Request.Base set) is first resolved into its derived
// self-contained form: the base spec comes from the server's spec registry
// (or the inline Problem), the delta is applied, and — when the base plan
// is still in the plan cache — the job is armed to warm-start from it.
// The job's fingerprint is that of the derived problem, so an empty delta
// lands on the base's own cache entry and returns the base plan verbatim.
func (m *Manager) Submit(req Request) (Status, error) {
	baseFp := ""
	var warmSol *serialize.SolutionJSON
	if req.IsDelta() {
		derived, fp, sol, err := m.resolveDelta(req)
		if err != nil {
			return Status{}, err
		}
		req, baseFp, warmSol = derived, fp, sol
	}
	prep, err := prepare(req)
	if err != nil {
		return Status{}, err
	}
	var warm *core.Solution
	if warmSol != nil {
		// A base plan that no longer decodes against the derived problem
		// (e.g. it routed over a damaged link and DecodeSolution rejects the
		// edge) degrades to a cold run instead of failing the submission:
		// the warm start is an optimization, never a correctness gate.
		if ws, werr := serialize.DecodeSolution(*warmSol, prep.prob.Connections); werr == nil {
			warm = ws
		} else {
			m.met.incWarmDegraded()
			m.emit(obsv.Event{Type: EventWarmDegraded, Msg: baseFp + ": " + werr.Error()})
		}
	}
	j := &job{
		id:          newJobID(),
		fingerprint: prep.fingerprint,
		prob:        prep.prob,
		cfg:         prep.cfg,
		certify:     prep.certify,
		certSamples: prep.certSamples,
		timeout:     prep.timeout,
		req:         &req,
		base:        baseFp,
		warm:        warm,
		state:       StateQueued,
		submitted:   time.Now().UTC(),
		terminal:    make(chan struct{}),
	}
	j.progress.TotalEpochs = prep.cfg.MaxEpoch

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Status{}, ErrDraining
	}
	if n := m.panics[j.fingerprint]; n >= m.opt.PoisonPanics {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w (fingerprint %s, %d panics)", ErrPoisoned, j.fingerprint, n)
	}
	if res, ok := m.cache[j.fingerprint]; ok {
		// Cache hit: the job is born terminal, carrying a copy of the
		// finished result under its own ID.
		// The copied result keeps its original Provenance (how the plan was
		// computed); the job's own status says "cache".
		r := *res
		r.JobID = j.id
		j.state = StateDone
		j.cacheHit = true
		j.provenance = ProvenanceCache
		j.finished = j.submitted
		j.result = &r
		j.progress = Progress{
			Epoch:        r.Epochs,
			TotalEpochs:  prep.cfg.MaxEpoch,
			BestCost:     r.Cost,
			GuaranteeMet: r.GuaranteeMet,
		}
		close(j.terminal)
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.registerSpecLocked(j.fingerprint, &req)
		m.mu.Unlock()
		m.met.incCacheHit()
		m.met.incDone()
		m.emit(obsv.Event{Type: EventCacheHit, Msg: j.id})
		m.persist(j)
		return j.status(), nil
	}
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.registerSpecLocked(j.fingerprint, &req)
		depth := len(m.queue)
		m.mu.Unlock()
		m.met.incCacheMiss()
		m.met.incSubmitted()
		m.met.addQueueDepth(1)
		m.emit(obsv.Event{Type: EventSubmitted, Msg: j.id, V: map[string]float64{"queue_depth": float64(depth)}})
		// Journal the accepted job (with its request) before answering 202:
		// from here on a crash must re-queue it, not lose it.
		m.persist(j)
		return j.status(), nil
	default:
		m.mu.Unlock()
		m.met.incRejected()
		m.emit(obsv.Event{Type: EventRejected, V: map[string]float64{"queue_size": float64(m.opt.QueueSize)}})
		return Status{}, ErrQueueFull
	}
}

// registerSpecLocked records an accepted request's self-contained spec
// under its fingerprint so later delta submissions can reference it.
// Caller holds m.mu.
func (m *Manager) registerSpecLocked(fp string, req *Request) {
	if _, ok := m.specs[fp]; !ok {
		m.specs[fp] = req
	}
}

// resolveDelta turns a delta request into its derived self-contained form.
// It returns the derived request, the resolved base fingerprint, and the
// base's cached plan when one exists (nil = the job will run cold).
//
// Base resolution: a 16-hex value names a job on this server (whose
// fingerprint is then used), a 32-hex value is a plan-cache fingerprint
// directly. ResolveBase supplies the base spec: the request's inline
// Problem when it carries one — what lets a fleet replica that never saw
// the base job still plan the delta (cold) — else the spec registry's.
func (m *Manager) resolveDelta(req Request) (Request, string, *serialize.SolutionJSON, error) {
	fp := req.Base
	switch len(req.Base) {
	case 16: // job ID
		j := m.lookup(req.Base)
		if j == nil {
			if !req.HasInlineProblem() {
				return Request{}, "", nil, fmt.Errorf("%w: no job %q", ErrBaseNotFound, req.Base)
			}
			fp = ""
		} else {
			fp = j.fingerprint
		}
	case 32: // plan-cache fingerprint
	default:
		return Request{}, "", nil, fmt.Errorf("base %q is neither a 16-hex job ID nor a 32-hex fingerprint", req.Base)
	}

	m.mu.Lock()
	spec, cached := m.specs[fp], m.cache[fp]
	m.mu.Unlock()
	req, err := ResolveBase(req, spec)
	if err != nil {
		return Request{}, "", nil, err
	}
	derived, err := req.Derive(req.Problem)
	if err != nil {
		return Request{}, "", nil, err
	}
	m.met.incDelta()
	var warmSol *serialize.SolutionJSON
	if cached != nil && cached.Solution != nil && !cached.Interrupted {
		warmSol = cached.Solution
	}
	return derived, fp, warmSol, nil
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	j := m.lookup(id)
	if j == nil {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// Result returns a finished job's result. ErrNotTerminal is returned
// while the job is queued or running; a terminal job without a result
// (failed, cancelled) yields the status error message.
func (m *Manager) Result(id string) (*Result, error) {
	j := m.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrNotTerminal
	}
	if j.result == nil {
		if j.errMsg != "" {
			return nil, fmt.Errorf("service: job %s %s: %s", id, j.state, j.errMsg)
		}
		return nil, fmt.Errorf("service: job %s %s without a result", id, j.state)
	}
	return j.result, nil
}

// List returns every known job's status in submission order (persisted
// jobs from earlier lives of the server included).
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests cancellation: a queued job turns cancelled immediately,
// a running job's context is cancelled (the planner stops at the next
// epoch boundary). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	j := m.lookup(id)
	if j == nil {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now().UTC()
		close(j.terminal)
		j.mu.Unlock()
		m.met.incCancelled()
		m.emit(obsv.Event{Type: EventCancelled, Msg: j.id})
		m.persist(j)
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return j.status(), nil
}

// Delete removes a terminal job and its persisted record; live jobs must
// be cancelled first. The plan cache keeps the fingerprint entry: deleting
// a job record does not un-learn the plan.
func (m *Manager) Delete(id string) error {
	j := m.lookup(id)
	if j == nil {
		return ErrNotFound
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if !terminal {
		return fmt.Errorf("service: job %s is %s; cancel it first", id, j.status().State)
	}
	m.mu.Lock()
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	if m.opt.Dir != "" {
		return deleteRecord(m.opt.Dir, id)
	}
	return nil
}

// Shutdown drains the engine: submissions are rejected from the first
// call, queued jobs are cancelled, and running jobs are given until ctx
// expires to finish; after that their contexts are cancelled, which makes
// the planner return its best-so-far report (persisted like any other
// finished job). Shutdown returns once every worker has stopped; the
// returned error is ctx.Err() when the deadline forced an early cancel.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
		close(m.watchStop)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			j.mu.Lock()
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel()
			}
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (m *Manager) lookup(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// workerLoop runs queued jobs until the queue is closed and drained.
func (m *Manager) workerLoop() {
	defer m.wg.Done()
	for j := range m.queue {
		m.met.addQueueDepth(-1)
		m.runJob(j)
	}
}

// runJob executes one dequeued job end to end.
func (m *Manager) runJob(j *job) {
	// A job cancelled while queued, or dequeued during drain, never runs.
	// Checked before taking j.mu: every path locks m.mu → j.mu in that
	// order (Shutdown's running-job sweep holds m.mu while touching job
	// locks), so j.mu → m.mu here would be a lock-order inversion.
	draining := m.isDraining()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	if draining {
		j.state = StateCancelled
		j.errMsg = "cancelled by server drain while queued"
		j.finished = time.Now().UTC()
		close(j.terminal)
		j.mu.Unlock()
		m.met.incCancelled()
		m.emit(obsv.Event{Type: EventCancelled, Msg: j.id})
		m.persist(j)
		return
	}

	ctx := context.Background()
	var cancelTimeout context.CancelFunc
	timeout := j.timeout
	if timeout == 0 {
		timeout = m.opt.DefaultTimeout
	}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	ctx, cancel := context.WithCancel(ctx)
	if cancelTimeout != nil {
		origCancel := cancel
		cancel = func() { origCancel(); cancelTimeout() }
	}
	defer cancel()

	now := time.Now().UTC()
	j.state = StateRunning
	j.started = now
	j.lastBeat = now
	j.cancel = cancel
	wait := now.Sub(j.submitted)
	j.mu.Unlock()

	m.met.addRunning(1)
	defer m.met.addRunning(-1)
	m.met.observeWait(wait)
	m.emit(obsv.Event{Type: EventStart, Msg: j.id, V: map[string]float64{"wait_seconds": wait.Seconds()}})
	// Journal the running transition before planning starts, so a crash
	// mid-plan leaves a running record behind for the next boot to re-queue.
	m.persist(j)
	if m.testBeforeRun != nil {
		m.testBeforeRun(j)
	}

	res, errMsg := m.planSafe(ctx, j)

	// m.mu is held across the terminal transition (lock order m.mu → j.mu)
	// so the plan cache learns a done result before anyone can see the job
	// finish: a client that re-submits on seeing "done" must hit it.
	m.mu.Lock()
	j.mu.Lock()
	j.cancel = nil
	j.finished = time.Now().UTC()
	run := j.finished.Sub(j.started)
	cancelled := j.cancelRequested
	stalled := j.stalled
	switch {
	case stalled:
		// The watchdog cancelled a job whose heartbeat went quiet; that is
		// a failure of the job, not a client cancellation.
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("stalled: no progress heartbeat for %s; interrupted by the watchdog", m.opt.StuckTimeout)
		j.result = res
	case cancelled:
		j.state = StateCancelled
		j.errMsg = "cancelled"
		j.result = res // best-so-far, when the interrupted run had one
	case errMsg != "":
		j.state = StateFailed
		j.errMsg = errMsg
		j.result = res
	default:
		j.state = StateDone
		j.result = res
		// Only deterministic outcomes enter the cache: an interrupted run
		// (deadline, drain) could complete differently given more time.
		if res != nil && !res.Interrupted {
			m.cache[j.fingerprint] = res
		}
	}
	state := j.state
	close(j.terminal)
	j.mu.Unlock()
	m.mu.Unlock()

	m.met.observeRun(run)
	m.noteRun(run)
	ev := obsv.Event{Msg: j.id, V: map[string]float64{"run_seconds": run.Seconds()}}
	switch state {
	case StateDone:
		m.met.incDone()
		ev.Type = EventDone
		if res != nil && res.Solution != nil {
			ev.V["cost"] = res.Cost
		}
	case StateCancelled:
		m.met.incCancelled()
		ev.Type = EventCancelled
	default:
		m.met.incFailed()
		ev.Type = EventFailed
	}
	m.emit(ev)
	m.persist(j)
}

// planSafe runs plan with per-job panic containment: a panicking planning
// run (a planner bug, or an injected service.plan fault) fails only its
// own job, and the worker goroutine survives to take the next one. Each
// contained panic counts against the job fingerprint's PoisonPanics
// budget; once exhausted, Submit refuses the fingerprint with ErrPoisoned
// instead of feeding a reproducible crasher to a worker again.
func (m *Manager) planSafe(ctx context.Context, j *job) (res *Result, errMsg string) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		res, errMsg = nil, fmt.Sprintf("panic: %v", r)
		m.met.incPanic()
		m.mu.Lock()
		m.panics[j.fingerprint]++
		n := m.panics[j.fingerprint]
		m.mu.Unlock()
		m.emit(obsv.Event{Type: EventPanic, Msg: j.id, V: map[string]float64{"fingerprint_panics": float64(n)}})
		if n == m.opt.PoisonPanics {
			m.met.incPoisoned()
			m.emit(obsv.Event{Type: EventPoisoned, Msg: j.fingerprint, V: map[string]float64{"panics": float64(n)}})
		}
	}()
	if f := m.opt.Fault; f != nil {
		f.Fire(ctx, fault.PointPlan)
	}
	return m.plan(ctx, j)
}

// plan answers one job, returning the result and an error message ("" on
// success).
//
// The attempt chain is zoo → warm → cold: a zoo-armed manager first tries
// an inference-only rollout of the nearest pretrained policy (certified
// plan with zero training epochs on success); a miss or a rejected
// candidate falls through to training, warm-started when the job carries a
// base plan. Every candidate plan, whichever attempt produced it, passes
// the same accept gate.
func (m *Manager) plan(ctx context.Context, j *job) (*Result, string) {
	if m.opt.Zoo != nil {
		if res := m.tryZoo(ctx, j); res != nil {
			return res, ""
		}
	}
	c, err := m.train(ctx, j)
	if err != nil {
		return nil, err.Error()
	}
	res, err := m.accept(ctx, j, c, j.certify && !c.interrupted)
	if err != nil {
		return res, err.Error()
	}
	return res, ""
}

// candidate is one attempt's plan on its way to the accept gate.
type candidate struct {
	sol         *core.Solution // nil when the attempt found no plan
	epochs      int
	interrupted bool
	provenance  string
	// start is when the producing attempt began; Result.RunSeconds runs
	// from here to the end of accept.
	start time.Time
}

// accept is the gate every served plan passes: verification of the
// candidate against the job's problem, then — when audit is set — the
// independent certification audit, whose failure rejects the plan. It
// returns the result built so far even on rejection, so a failed job
// keeps what its attempt produced.
func (m *Manager) accept(ctx context.Context, j *job, c candidate, audit bool) (res *Result, err error) {
	res = &Result{
		JobID:        j.id,
		Fingerprint:  j.fingerprint,
		GuaranteeMet: c.sol != nil,
		Epochs:       c.epochs,
		Interrupted:  c.interrupted,
		Provenance:   c.provenance,
	}
	defer func() { res.RunSeconds = time.Since(c.start).Seconds() }()
	if c.sol == nil {
		return res, nil
	}
	// Verification runs on a fresh context: the job's deadline bounds
	// planning, and an interrupted run's best-so-far plan must still be
	// checked (and served) rather than failed on the expired context.
	if err := core.VerifySolutionContext(context.Background(), j.prob, c.sol); err != nil {
		return res, fmt.Errorf("solution failed verification: %v", err)
	}
	sol := serialize.EncodeSolution(c.sol)
	res.Solution = &sol
	res.Cost = c.sol.Cost
	if !audit {
		return res, nil
	}
	// One beat before the audit: certification emits no epoch progress,
	// so this marks the start of its watchdog allowance.
	j.beat()
	cert, err := (&certify.Certifier{
		Prob: j.prob,
		Sol:  c.sol,
		Opt: certify.Options{
			Samples:         j.certSamples,
			Seed:            j.cfg.Seed,
			AnalyzerWorkers: j.cfg.AnalyzerWorkers,
		},
	}).Certify(ctx)
	if err != nil {
		return res, fmt.Errorf("certification audit: %v", err)
	}
	res.Certificate = cert
	if !cert.OK() {
		return res, errors.New("solution failed independent certification")
	}
	return res, nil
}

// train is the training attempt: the planner runs warm-started from the
// job's base plan when it has one, cold otherwise, and its best plan
// becomes the candidate.
func (m *Manager) train(ctx context.Context, j *job) (candidate, error) {
	c := candidate{provenance: ProvenanceTrained, start: time.Now()}
	if j.warm != nil {
		c.provenance = ProvenanceWarm
		j.noteAttempt("warm")
	} else {
		j.noteAttempt("cold")
	}
	cfg := j.cfg
	cfg.Metrics = m.opt.Metrics // training series accumulate across jobs
	if m.verdicts != nil {
		// All jobs share the server-wide verdict cache; keys carry the full
		// problem context, so cross-job hits are sound. Delta re-plans are
		// the payoff: most of the base plan's scenarios recur verbatim.
		cfg.SharedAnalyzerCache = m.verdicts
	}
	if j.warm != nil {
		cfg.WarmStart = j.warm
		cfg.OnWarmStart = func(info core.WarmStartInfo) {
			j.mu.Lock()
			j.lastBeat = time.Now()
			j.warmInfo = &info
			j.mu.Unlock()
			m.met.incWarm()
			m.emit(obsv.Event{Type: EventWarmStart, Msg: j.id, V: map[string]float64{
				"seeded_links":  float64(info.SeededLinks),
				"dropped_links": float64(info.DroppedLinks),
				"seed_solved":   boolTo01(info.SeedSolved),
			}})
		}
	}
	cfg.Progress = func(es core.EpochStats) {
		j.mu.Lock()
		j.lastBeat = time.Now()
		j.progress.Epoch = es.Epoch
		j.progress.Reward = es.Reward
		j.progress.Solutions += es.Solutions
		if es.BestCost > 0 {
			j.progress.BestCost = es.BestCost
			j.progress.GuaranteeMet = true
		}
		j.mu.Unlock()
		if obs := m.opt.Progress; obs != nil {
			// The observer runs outside every engine lock, and the job keeps
			// its heartbeat through a proxy beater for as long as the
			// observer blocks: a slow dashboard must not get a healthy job
			// killed by the stuck-job watchdog. The planner itself holds no
			// locks during Progress, so blocking here stalls only this job's
			// training clock, never the engine.
			stop := m.beatWhile(j)
			defer stop()
			obs(j.id, es)
		}
	}
	if f := m.opt.Fault; f != nil {
		cfg.ExploreHook = func(ctx context.Context, epoch, worker int) {
			f.Fire(ctx, fault.PointExplore)
		}
	}
	planner, err := core.NewPlanner(j.prob, cfg)
	if err != nil {
		return c, err // unreachable: Submit dry-ran the constructor
	}
	report, err := planner.PlanContext(ctx)
	if err != nil {
		return c, err
	}
	j.setProvenance(c.provenance)
	c.sol, c.epochs, c.interrupted = report.Best, len(report.Epochs), report.Interrupted
	return c, nil
}

// zooRolloutStreams is how many independent greedy attempts a zoo rollout
// runs per job — enough to ride out one unlucky construction order, cheap
// next to a single training epoch.
const zooRolloutStreams = 4

// tryZoo is the zoo attempt: the nearest geometry-compatible policy by
// feature distance is rolled out greedily, inference only, and its plan
// goes through the accept gate with the certification audit mandatory (a
// transferred policy's plan is never trusted on the planner's own say-so,
// certify switch or not). It returns the result only for an accepted
// plan; every other outcome is recorded (miss or reject) and returns nil,
// falling back to training.
func (m *Manager) tryZoo(ctx context.Context, j *job) *Result {
	geo, err := zoo.GeometryOf(j.prob, j.cfg)
	if err != nil {
		// A problem the SOAG rejects would have failed prepare already;
		// treat it as a miss rather than failing the job here.
		m.met.incZooMiss()
		return nil
	}
	match, ok := m.opt.Zoo.Lookup(geo, zoo.FeaturesOf(j.prob))
	if !ok {
		m.met.incZooMiss()
		m.emit(obsv.Event{Type: EventZooMiss, Msg: j.id})
		return nil
	}
	j.noteAttempt("zoo")
	c := candidate{provenance: ProvenanceZoo, start: time.Now()}
	cfg := j.cfg
	if m.verdicts != nil {
		cfg.SharedAnalyzerCache = m.verdicts
	}
	sol, stats, err := zoo.Rollout(ctx, j.prob, cfg, match.Weights, zoo.RolloutOptions{
		Streams: zooRolloutStreams,
		Workers: cfg.Workers,
	})
	m.met.addZooSteps(stats.EnvSteps)
	var res *Result
	switch {
	case err != nil:
		err = fmt.Errorf("rollout: %v", err)
	case sol == nil:
		err = errors.New("no stream solved within the rollout budget")
	default:
		if m.testZooTamper != nil {
			m.testZooTamper(sol)
		}
		c.sol = sol
		res, err = m.accept(ctx, j, c, true)
	}
	m.met.observeZoo(time.Since(c.start))
	if err != nil {
		m.met.incZooReject()
		m.emit(obsv.Event{Type: EventZooReject, Msg: j.id + ": " + err.Error(),
			V: map[string]float64{"distance": match.Distance}})
		return nil
	}
	j.mu.Lock()
	j.provenance = ProvenanceZoo
	j.progress.BestCost = sol.Cost
	j.progress.GuaranteeMet = true
	j.progress.Solutions = stats.Solved
	j.mu.Unlock()
	m.met.incZooHit()
	m.emit(obsv.Event{Type: EventZooHit, Msg: j.id + " " + match.Entry.ID, V: map[string]float64{
		"env_steps": float64(stats.EnvSteps),
		"distance":  match.Distance,
		"seconds":   res.RunSeconds,
	}})
	return res
}

// ReloadZoo re-reads the zoo directory from disk — the SIGHUP/boot path
// that lets replicas sharing one zoo pick up newly pretrained policies.
// Quarantined files are reported exactly like boot-time store corruption.
// It returns the number of usable policies, and 0 with a nil error when
// the manager has no zoo.
func (m *Manager) ReloadZoo() (int, error) {
	if m.opt.Zoo == nil {
		return 0, nil
	}
	quarantined, err := m.opt.Zoo.Reload()
	if err != nil {
		return 0, err
	}
	if len(quarantined) > 0 {
		m.met.addZooCorrupt(len(quarantined))
		m.emit(obsv.Event{Type: EventZooCorrupt, Msg: strings.Join(quarantined, "; "),
			V: map[string]float64{"files": float64(len(quarantined))}})
	}
	n := m.opt.Zoo.Len()
	m.met.setZooSize(n)
	return n, nil
}

// beatWhile keeps j's watchdog heartbeat alive on the caller's behalf
// until the returned stop function runs. Used around external observer
// callbacks: the job is not stuck, it is waiting on the observer.
func (m *Manager) beatWhile(j *job) func() {
	if m.opt.StuckTimeout <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(m.opt.StuckTimeout / 4)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				j.beat()
			}
		}
	}()
	return func() { close(stop); <-done }
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// persist writes the job's current record when persistence is on: live
// jobs are journaled with their request (crash recovery re-queues them),
// terminal jobs keep only status and result. A store write failure (disk
// full, injected fault) is reported and counted, never fatal — the job
// still completes in memory.
func (m *Manager) persist(j *job) {
	if m.opt.Dir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	rec := record{Status: j.status(), Attempts: j.attempts}
	j.mu.Lock()
	rec.Result = j.result
	j.mu.Unlock()
	// Live jobs journal their request for crash recovery; done jobs keep it
	// too, so the fingerprint's spec can seed delta bases across restarts.
	if !rec.Status.State.Terminal() || rec.Status.State == StateDone {
		rec.Request = j.req
	}
	if err := saveRecord(m.opt.Dir, rec, m.fsFaults()); err != nil {
		m.met.incStoreErr()
		m.emit(obsv.Event{Type: EventStoreError, Msg: err.Error()})
	}
}

// fsFaults adapts the configured injector to the record store's
// filesystem seam; nil when fault injection is off.
func (m *Manager) fsFaults() serialize.FSFaults {
	if m.opt.Fault == nil {
		return nil
	}
	return fault.FS{In: m.opt.Fault}
}

// noteRun records one finished run's duration in the Retry-After ring.
func (m *Manager) noteRun(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recent) < recentRunWindow {
		m.recent = append(m.recent, d)
	} else {
		m.recent[m.recentIdx] = d
	}
	m.recentIdx = (m.recentIdx + 1) % recentRunWindow
}

// recentRunWindow is how many recent run durations feed RetryAfterSeconds.
const recentRunWindow = 16

// RetryAfterSeconds estimates when a submission bounced by backpressure is
// worth retrying: the queue backlog paced by the mean of the last few run
// durations, divided across the worker pool, clamped to [1s, 10min]. With
// no finished runs to average yet the floor of one second stands — an
// earlier retry cannot succeed anyway, planning jobs run for seconds to
// hours.
func (m *Manager) RetryAfterSeconds() int {
	m.mu.Lock()
	var sum time.Duration
	n := len(m.recent)
	for _, d := range m.recent {
		sum += d
	}
	depth := len(m.queue)
	m.mu.Unlock()
	if n == 0 || depth == 0 {
		return 1
	}
	wait := sum / time.Duration(n) * time.Duration(depth) / time.Duration(m.opt.Workers)
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// watchdog periodically sweeps running jobs whose progress heartbeat has
// gone quiet for StuckTimeout and cancels them; runJob maps the stalled
// flag to StateFailed. Sweeping at a quarter of the timeout bounds
// detection latency to 1.25 × StuckTimeout.
func (m *Manager) watchdog() {
	tick := time.NewTicker(m.opt.StuckTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-m.watchStop:
			return
		case <-tick.C:
			m.sweepStuck()
		}
	}
}

// sweepStuck cancels every running job whose last heartbeat predates the
// stuck cutoff. Job locks are taken one at a time after m.mu is released,
// preserving the m.mu → j.mu lock order used everywhere else.
func (m *Manager) sweepStuck() {
	cutoff := time.Now().Add(-m.opt.StuckTimeout)
	m.mu.Lock()
	candidates := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		candidates = append(candidates, j)
	}
	m.mu.Unlock()
	for _, j := range candidates {
		j.mu.Lock()
		if j.state != StateRunning || j.stalled || j.lastBeat.IsZero() || !j.lastBeat.Before(cutoff) {
			j.mu.Unlock()
			continue
		}
		j.stalled = true
		quiet := time.Since(j.lastBeat)
		cancel := j.cancel
		j.mu.Unlock()
		m.met.incStalled()
		m.emit(obsv.Event{Type: EventStalled, Msg: j.id, V: map[string]float64{"stalled_seconds": quiet.Seconds()}})
		if cancel != nil {
			cancel()
		}
	}
}

// emit sends one lifecycle event; sink errors are counted, not fatal.
func (m *Manager) emit(e obsv.Event) {
	if m.opt.Events == nil {
		return
	}
	if err := m.opt.Events.Emit(e); err != nil {
		m.met.incEventErr()
	}
}
