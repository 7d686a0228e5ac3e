package service

import (
	"time"

	"repro/internal/obsv"
)

// Service lifecycle event types, emitted to Options.Events as JSON lines.
// Msg carries the job ID; V carries the numeric payload.
const (
	// EventSubmitted records a job entering the queue (queue_depth in V).
	EventSubmitted = "job_submitted"
	// EventCacheHit records a submission answered from the plan cache.
	EventCacheHit = "job_cache_hit"
	// EventRejected records a submission bounced by backpressure.
	EventRejected = "job_rejected"
	// EventStart records a job leaving the queue (wait_seconds in V).
	EventStart = "job_start"
	// EventDone / EventFailed / EventCancelled close a job
	// (run_seconds, and cost when a plan was found, in V).
	EventDone      = "job_done"
	EventFailed    = "job_failed"
	EventCancelled = "job_cancelled"
	// EventPanic records a planning run that panicked; the panic was
	// contained to the job (panics for the fingerprint so far in V).
	EventPanic = "job_panic"
	// EventStalled records the watchdog interrupting a running job that
	// stopped emitting progress heartbeats (stalled_seconds in V).
	EventStalled = "job_stalled"
	// EventRequeued records a journaled live job re-entering the queue
	// after a restart (attempt number in V).
	EventRequeued = "job_requeued"
	// EventPoisoned records a fingerprint being refused: either its
	// planning runs panicked PoisonPanics times, or a journaled job
	// exhausted MaxAttempts restarts.
	EventPoisoned = "job_poisoned"
	// EventStoreCorrupt records record files quarantined into corrupt/ at
	// boot; Msg lists "file: reason" per quarantined file.
	EventStoreCorrupt = "store_corrupt"
	// EventStoreError records a job record the store failed to write (disk
	// full, injected fault); Msg carries the error. The job itself goes on
	// in memory.
	EventStoreError = "store_error"
	// EventWarmStart records a delta job whose planner actually seeded from
	// the base plan (seeded/dropped link counts and seed_solved in V).
	EventWarmStart = "job_warm_start"
	// EventWarmDegraded records a delta job that fell back to a cold run
	// because the cached base plan no longer decoded against the derived
	// problem; Msg carries the base fingerprint and reason.
	EventWarmDegraded = "job_warm_degraded"
	// EventZooHit records a job answered by an inference-only rollout of a
	// pretrained zoo policy, accepted by the certifier (env_steps, the
	// feature distance and the rollout wall time in V; Msg is "jobID
	// policyID").
	EventZooHit = "job_zoo_hit"
	// EventZooMiss records a zoo lookup that found no geometry-compatible
	// policy; the job proceeds to warm/cold training.
	EventZooMiss = "job_zoo_miss"
	// EventZooReject records a zoo rollout whose candidate plan did not
	// survive the accept gate (no solution, failed verification, or a
	// failed certificate); Msg carries the job ID and reason, and the job
	// falls back to warm/cold training.
	EventZooReject = "job_zoo_reject"
	// EventZooCorrupt records zoo files quarantined into the zoo's
	// corrupt/ dir at boot or reload; Msg lists "file: reason" lines.
	EventZooCorrupt = "zoo_corrupt"
)

// metrics bundles the nptsn_service_* instrument handles. A nil *metrics
// is valid and records nothing, mirroring the planner's convention.
type metrics struct {
	submitted  *obsv.Counter
	done       *obsv.Counter
	failed     *obsv.Counter
	cancelled  *obsv.Counter
	rejected   *obsv.Counter
	cacheHits  *obsv.Counter
	cacheMiss  *obsv.Counter
	eventErrs  *obsv.Counter
	storeErrs  *obsv.Counter
	skipped    *obsv.Counter
	panics     *obsv.Counter
	stalled    *obsv.Counter
	requeued   *obsv.Counter
	poisoned   *obsv.Counter
	deltas     *obsv.Counter
	warm       *obsv.Counter
	warmDeg    *obsv.Counter
	zooHits    *obsv.Counter
	zooMisses  *obsv.Counter
	zooRejects *obsv.Counter
	zooSteps   *obsv.Counter
	zooCorrupt *obsv.Counter
	queueDepth *obsv.Gauge
	zooSize    *obsv.Gauge
	running    *obsv.Gauge
	waitSecs   *obsv.Histogram
	runSecs    *obsv.Histogram
	zooSecs    *obsv.Histogram
}

func newMetrics(reg *obsv.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		submitted:  reg.Counter("nptsn_service_jobs_submitted_total", "Planning jobs accepted into the queue (cache hits excluded)."),
		done:       reg.Counter("nptsn_service_jobs_done_total", "Planning jobs finished successfully (cache hits included)."),
		failed:     reg.Counter("nptsn_service_jobs_failed_total", "Planning jobs that ended in an error."),
		cancelled:  reg.Counter("nptsn_service_jobs_cancelled_total", "Planning jobs cancelled before completion."),
		rejected:   reg.Counter("nptsn_service_jobs_rejected_total", "Submissions rejected by queue backpressure."),
		cacheHits:  reg.Counter("nptsn_service_cache_hits_total", "Submissions answered instantly from the plan cache."),
		cacheMiss:  reg.Counter("nptsn_service_cache_misses_total", "Submissions that required a fresh planning run."),
		eventErrs:  reg.Counter("nptsn_service_event_errors_total", "Lifecycle events the sink failed to record."),
		storeErrs:  reg.Counter("nptsn_service_store_errors_total", "Job-record writes the store failed (disk full, I/O errors); the job went on in memory."),
		skipped:    reg.Counter("nptsn_service_records_skipped_total", "Job-record files quarantined into corrupt/ at boot (torn writes, bad checksums, foreign files)."),
		panics:     reg.Counter("nptsn_service_job_panics_total", "Planning runs that panicked; each was contained to its own job."),
		stalled:    reg.Counter("nptsn_service_jobs_stalled_total", "Running jobs the watchdog interrupted for missing progress heartbeats."),
		requeued:   reg.Counter("nptsn_service_jobs_requeued_total", "Journaled live jobs re-queued after a restart."),
		poisoned:   reg.Counter("nptsn_service_jobs_poisoned_total", "Fingerprints refused after repeated panics or exhausted restart attempts."),
		deltas:     reg.Counter("nptsn_service_delta_jobs_total", "Submissions that referenced a base job and were resolved through the delta grammar."),
		warm:       reg.Counter("nptsn_service_warm_starts_total", "Planning runs that seeded from a cached base plan."),
		warmDeg:    reg.Counter("nptsn_service_warm_degraded_total", "Delta jobs that fell back to a cold run because the base plan no longer applied."),
		zooHits:    reg.Counter("nptsn_zoo_hits_total", "Jobs answered by a certified inference-only rollout of a pretrained zoo policy (zero training epochs)."),
		zooMisses:  reg.Counter("nptsn_zoo_misses_total", "Zoo lookups that found no geometry-compatible policy."),
		zooRejects: reg.Counter("nptsn_zoo_rejects_total", "Zoo rollouts whose candidate plan failed the accept gate (no solution, verification, or certificate); the job fell back to training."),
		zooSteps:   reg.Counter("nptsn_zoo_env_steps_total", "Environment steps spent in zoo rollouts — the inference cost that replaces training."),
		zooCorrupt: reg.Counter("nptsn_zoo_corrupt_total", "Zoo files quarantined into the zoo's corrupt/ dir at boot or reload."),
		queueDepth: reg.Gauge("nptsn_service_queue_depth", "Jobs waiting in the queue."),
		zooSize:    reg.Gauge("nptsn_zoo_policies", "Usable policies in the zoo after the last load or reload."),
		running:    reg.Gauge("nptsn_service_jobs_running", "Jobs currently planning."),
		waitSecs:   reg.Histogram("nptsn_service_wait_seconds", "Queue wait per job (submit to start).", obsv.DurationBuckets),
		runSecs:    reg.Histogram("nptsn_service_run_seconds", "Planning wall-clock per job (start to finish).", obsv.DurationBuckets),
		zooSecs:    reg.Histogram("nptsn_zoo_rollout_seconds", "Wall-clock per zoo rollout attempt (lookup to accept-gate verdict).", obsv.DurationBuckets),
	}
}

func (m *metrics) observeWait(d time.Duration) {
	if m != nil {
		m.waitSecs.Observe(d.Seconds())
	}
}

func (m *metrics) observeRun(d time.Duration) {
	if m != nil {
		m.runSecs.Observe(d.Seconds())
	}
}

func (m *metrics) addQueueDepth(delta float64) {
	if m != nil {
		m.queueDepth.Add(delta)
	}
}

func (m *metrics) addRunning(delta float64) {
	if m != nil {
		m.running.Add(delta)
	}
}

func (m *metrics) incSubmitted() { m.safeInc(func() *obsv.Counter { return m.submitted }) }
func (m *metrics) incDone()      { m.safeInc(func() *obsv.Counter { return m.done }) }
func (m *metrics) incFailed()    { m.safeInc(func() *obsv.Counter { return m.failed }) }
func (m *metrics) incCancelled() { m.safeInc(func() *obsv.Counter { return m.cancelled }) }
func (m *metrics) incRejected()  { m.safeInc(func() *obsv.Counter { return m.rejected }) }
func (m *metrics) incCacheHit()  { m.safeInc(func() *obsv.Counter { return m.cacheHits }) }
func (m *metrics) incCacheMiss() { m.safeInc(func() *obsv.Counter { return m.cacheMiss }) }
func (m *metrics) incEventErr()  { m.safeInc(func() *obsv.Counter { return m.eventErrs }) }
func (m *metrics) incStoreErr()  { m.safeInc(func() *obsv.Counter { return m.storeErrs }) }
func (m *metrics) incPanic()     { m.safeInc(func() *obsv.Counter { return m.panics }) }
func (m *metrics) incStalled()   { m.safeInc(func() *obsv.Counter { return m.stalled }) }
func (m *metrics) incRequeued()  { m.safeInc(func() *obsv.Counter { return m.requeued }) }
func (m *metrics) incPoisoned()  { m.safeInc(func() *obsv.Counter { return m.poisoned }) }

func (m *metrics) incDelta()        { m.safeInc(func() *obsv.Counter { return m.deltas }) }
func (m *metrics) incWarm()         { m.safeInc(func() *obsv.Counter { return m.warm }) }
func (m *metrics) incWarmDegraded() { m.safeInc(func() *obsv.Counter { return m.warmDeg }) }

func (m *metrics) incZooHit()    { m.safeInc(func() *obsv.Counter { return m.zooHits }) }
func (m *metrics) incZooMiss()   { m.safeInc(func() *obsv.Counter { return m.zooMisses }) }
func (m *metrics) incZooReject() { m.safeInc(func() *obsv.Counter { return m.zooRejects }) }

func (m *metrics) addZooSteps(n int) {
	if m != nil && n > 0 {
		m.zooSteps.Add(float64(n))
	}
}

func (m *metrics) addZooCorrupt(n int) {
	if m != nil && n > 0 {
		m.zooCorrupt.Add(float64(n))
	}
}

func (m *metrics) setZooSize(n int) {
	if m != nil {
		m.zooSize.Set(float64(n))
	}
}

func (m *metrics) observeZoo(d time.Duration) {
	if m != nil {
		m.zooSecs.Observe(d.Seconds())
	}
}

func (m *metrics) addSkipped(n int) {
	if m != nil && n > 0 {
		m.skipped.Add(float64(n))
	}
}

func (m *metrics) safeInc(c func() *obsv.Counter) {
	if m != nil {
		c().Inc()
	}
}
