// Package fleet is the distributed serving layer of the NPTSN
// reproduction: a coordinator that fronts N nptsn-serve replicas behind
// the same /v1/jobs API one replica exposes, scaling the planning service
// horizontally while keeping the paper's reliability promise across
// replica failures.
//
// Jobs shard by consistent hashing on the service's problem fingerprint
// (failure.Digest over the canonicalized spec + planning knobs), so every
// problem has a home shard and the per-replica plan cache deduplicates
// fleet-wide: identical submissions land on the same replica and hit its
// cache. Replicas register and send jittered heartbeats; the coordinator
// tracks them through an alive → suspect → dead state machine. When a
// replica dies, its in-flight jobs are re-served to the next replica on
// the ring using service.Client's idempotent adoption-by-fingerprint —
// the target is first asked whether it already owns the work, so a
// failover retried twice (or raced by a duplicate submission) never plans
// the same problem twice on the same replica. When a home shard is down,
// submissions degrade to next-ring routing instead of failing with 503.
package fleet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/service"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNoReplicas is returned when no registered replica is routable
	// (HTTP 503).
	ErrNoReplicas = errors.New("fleet: no replica available")
	// ErrUnknownReplica is returned for heartbeats from replicas the
	// coordinator does not know — the replica must re-register (HTTP 404).
	ErrUnknownReplica = errors.New("fleet: unknown replica")
	// ErrNotFound is returned for unknown fleet job IDs (HTTP 404).
	ErrNotFound = errors.New("fleet: no such job")
	// ErrBadRequest wraps request validation failures caught at the
	// coordinator, before any replica is contacted (HTTP 400).
	ErrBadRequest = errors.New("fleet: invalid request")
)

// ReplicaState is a replica's position in the health state machine.
type ReplicaState string

// The three replica states. A replica is born alive at registration,
// turns suspect when its heartbeat goes quiet past SuspectAfter, dead
// past DeadAfter (or on graceful deregistration), and returns to alive on
// the next heartbeat or registration.
const (
	ReplicaAlive   ReplicaState = "alive"
	ReplicaSuspect ReplicaState = "suspect"
	ReplicaDead    ReplicaState = "dead"
)

// Options configures a Coordinator.
type Options struct {
	// HeartbeatInterval is the pace replicas are told to beat at
	// (default 1s). The monitor sweeps at half this interval.
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a heartbeat may be quiet before the replica
	// turns suspect (default 3 × HeartbeatInterval). Suspect replicas keep
	// their in-flight jobs but new submissions route around them.
	SuspectAfter time.Duration
	// DeadAfter is how long a heartbeat may be quiet before the replica is
	// declared dead and its in-flight jobs fail over (default
	// 8 × HeartbeatInterval). Must exceed SuspectAfter.
	DeadAfter time.Duration
	// CallTimeout bounds each coordinator→replica call as a whole — all of
	// its client retries and backoff included (default 10s). This is what
	// turns a hung replica — a connection that accepts and goes silent —
	// into a routable failure instead of a stuck coordinator.
	CallTimeout time.Duration
	// VirtualNodes is the consistent-hash ring's per-replica point count
	// (default 128).
	VirtualNodes int
	// HTTP is the shared transport for all replica calls; chaos drills
	// wrap it in fault.Transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Events receives JSON-lines fleet lifecycle events (see the Event*
	// constants). Nil disables them.
	Events obsv.Sink
	// Metrics receives the nptsn_fleet_* series. When nil, they go to a
	// private registry nobody scrapes.
	Metrics *obsv.Registry
}

func (o *Options) withDefaults() Options {
	opt := *o
	if opt.HeartbeatInterval <= 0 {
		opt.HeartbeatInterval = time.Second
	}
	if opt.SuspectAfter <= 0 {
		opt.SuspectAfter = 3 * opt.HeartbeatInterval
	}
	if opt.DeadAfter <= opt.SuspectAfter {
		opt.DeadAfter = 8 * opt.HeartbeatInterval
		if opt.DeadAfter <= opt.SuspectAfter {
			opt.DeadAfter = 2 * opt.SuspectAfter
		}
	}
	if opt.CallTimeout <= 0 {
		opt.CallTimeout = 10 * time.Second
	}
	return opt
}

// replica is the coordinator's record of one nptsn-serve instance.
type replica struct {
	id         string
	url        string
	state      ReplicaState
	lastBeat   time.Time
	registered time.Time
	client     *service.Client
}

// fleetJob is the coordinator's record of one accepted submission: which
// replica owns it now, the journaled request for re-serving it after that
// replica dies, and the last observed status/result. A terminal last is
// final: nothing overwrites it, so a finished job never reads live again.
type fleetJob struct {
	id          string
	fingerprint string
	// routeFp is the fingerprint the job shards by: for delta jobs the
	// BASE fingerprint (so the job lands where the warm cache lives), else
	// the job's own. Handoffs route by it too.
	routeFp string
	// req is the materialized request — delta jobs carry their base spec
	// inline, so any replica can serve a handoff even if it never saw the
	// base job (it degrades to a cold run, not an error).
	req       service.Request
	submitted time.Time

	mu        sync.Mutex
	replicaID string
	remoteID  string
	handoffs  int
	last      service.Status
	result    *service.Result
}

// JobStatus is the fleet view of a job: the replica's status snapshot
// under the fleet's own job ID, plus placement detail.
type JobStatus struct {
	service.Status
	// Replica is the ID of the replica currently owning the job.
	Replica string `json:"replica,omitempty"`
	// RemoteID is the job's ID on that replica.
	RemoteID string `json:"remoteId,omitempty"`
	// Handoffs counts how many times the job was re-served after a replica
	// death.
	Handoffs int `json:"handoffs,omitempty"`
}

// ReplicaInfo is one replica's row in the /v1/fleet status.
type ReplicaInfo struct {
	ID    string       `json:"id"`
	URL   string       `json:"url"`
	State ReplicaState `json:"state"`
	// LastHeartbeatAgoSec is the silence on this replica's heartbeat.
	LastHeartbeatAgoSec float64 `json:"lastHeartbeatAgoSec"`
	// LiveJobs counts non-terminal fleet jobs assigned to the replica.
	LiveJobs int `json:"liveJobs"`
}

// FleetStatus is the /v1/fleet payload.
type FleetStatus struct {
	Replicas             []ReplicaInfo `json:"replicas"`
	Alive                int           `json:"alive"`
	Suspect              int           `json:"suspect"`
	Dead                 int           `json:"dead"`
	Jobs                 int           `json:"jobs"`
	LiveJobs             int           `json:"liveJobs"`
	Failovers            int           `json:"failovers"`
	Handoffs             int           `json:"handoffs"`
	HeartbeatIntervalSec float64       `json:"heartbeatIntervalSec"`
}

// Coordinator fronts a fleet of nptsn-serve replicas behind one /v1/jobs
// API. All methods are safe for concurrent use.
type Coordinator struct {
	opt Options
	met *metrics

	mu        sync.Mutex
	replicas  map[string]*replica
	ring      *Ring
	jobs      map[string]*fleetJob
	order     []string
	byFp      map[string]string // fingerprint → fleet job ID
	failovers int
	handoffs  int

	// placing serializes placement per fingerprint (fp → *sync.Mutex), so
	// two racing submissions of the same problem cannot both miss the
	// dedup table and double-place it.
	placing sync.Map

	// busy guards the background refresh/failover pass: the monitor skips
	// a tick rather than piling a second network sweep on a slow one.
	busy atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a Coordinator and starts its health monitor.
func New(opt Options) *Coordinator {
	o := opt.withDefaults()
	c := &Coordinator{
		opt:      o,
		met:      newMetrics(o.Metrics),
		replicas: make(map[string]*replica),
		ring:     NewRing(o.VirtualNodes),
		jobs:     make(map[string]*fleetJob),
		byFp:     make(map[string]string),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.monitor()
	return c
}

// Close stops the health monitor. In-flight proxy calls finish on their
// own contexts; replicas keep planning whatever they already own.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

func (c *Coordinator) newClient(url string) *service.Client {
	return &service.Client{
		BaseURL:    url,
		HTTP:       c.opt.HTTP,
		MaxBackoff: c.opt.CallTimeout,
	}
}

func newFleetJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("fleet: job id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Register adds (or revives) a replica and returns the heartbeat interval
// it should beat at. Registration always marks the replica alive: it is
// the replica's own claim of liveness.
func (c *Coordinator) Register(id, url string) time.Duration {
	now := time.Now()
	c.mu.Lock()
	r := c.replicas[id]
	if r == nil {
		r = &replica{id: id, url: url, registered: now, client: c.newClient(url)}
		c.replicas[id] = r
		c.ring.Add(id)
	} else if r.url != url {
		r.url = url
		r.client = c.newClient(url)
	}
	prev := r.state
	r.state = ReplicaAlive
	r.lastBeat = now
	alive, suspect, dead := c.stateCountsLocked()
	c.mu.Unlock()

	c.met.registered.Inc()
	c.met.setStates(alive, suspect, dead)
	if prev != ReplicaAlive {
		c.emit(obsv.Event{Type: EventReplicaUp, Msg: id, V: map[string]float64{"replicas_alive": float64(alive)}})
	}
	return c.opt.HeartbeatInterval
}

// Heartbeat records one beat. A beat from a suspect or dead replica
// revives it (its ring points never left, so its keys come home).
// ErrUnknownReplica tells a replica the coordinator restarted and it must
// re-register.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	r := c.replicas[id]
	if r == nil {
		c.mu.Unlock()
		return ErrUnknownReplica
	}
	prev := r.state
	r.state = ReplicaAlive
	r.lastBeat = time.Now()
	alive, suspect, dead := c.stateCountsLocked()
	c.mu.Unlock()

	c.met.heartbeats.Inc()
	if prev != ReplicaAlive {
		c.met.setStates(alive, suspect, dead)
		c.emit(obsv.Event{Type: EventReplicaUp, Msg: id, V: map[string]float64{"replicas_alive": float64(alive)}})
	}
	return nil
}

// Deregister marks a replica dead immediately — the graceful path a
// draining replica takes so its jobs fail over now rather than after the
// heartbeat timeout.
func (c *Coordinator) Deregister(id string) {
	c.mu.Lock()
	r := c.replicas[id]
	if r == nil || r.state == ReplicaDead {
		c.mu.Unlock()
		return
	}
	r.state = ReplicaDead
	quiet := time.Since(r.lastBeat)
	failingOver := c.liveJobsOnLocked(id)
	c.failovers++
	alive, suspect, dead := c.stateCountsLocked()
	c.mu.Unlock()

	c.met.setStates(alive, suspect, dead)
	c.met.failovers.Inc()
	c.emit(obsv.Event{Type: EventReplicaDead, Msg: id, V: map[string]float64{
		"quiet_seconds": quiet.Seconds(), "jobs_failing_over": float64(failingOver)}})
	go c.backgroundSweep()
}

// stateCountsLocked tallies replica states; callers hold c.mu.
func (c *Coordinator) stateCountsLocked() (alive, suspect, dead int) {
	for _, r := range c.replicas {
		switch r.state {
		case ReplicaAlive:
			alive++
		case ReplicaSuspect:
			suspect++
		case ReplicaDead:
			dead++
		}
	}
	return alive, suspect, dead
}

// liveJobsOnLocked counts non-terminal jobs assigned to a replica;
// callers hold c.mu (job locks nest under it).
func (c *Coordinator) liveJobsOnLocked(id string) int {
	n := 0
	for _, j := range c.jobs {
		j.mu.Lock()
		if j.replicaID == id && !j.last.State.Terminal() {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Submit validates a request, dedups it against the fleet's fingerprint
// table, and places it on its home shard — or, when the home shard is
// suspect or dead, on the next replica along the ring.
//
// Delta requests are first materialized: a base referencing a fleet job
// (or a fingerprint the fleet tracks) gets that job's derived spec
// injected inline and its Base rewritten to the base fingerprint. The job
// then routes by the BASE fingerprint — the base's home shard holds the
// plan cache the warm start needs — while any fallback replica can still
// serve it cold from the inline spec, so a dead home shard costs the
// speedup, never the job.
func (c *Coordinator) Submit(ctx context.Context, req service.Request) (JobStatus, error) {
	req, routeFp, dedupFp, err := c.materialize(req)
	if err != nil {
		return JobStatus{}, err
	}

	// One placement at a time per fingerprint: the loser of the race
	// adopts the winner's job through the dedup table instead of planting
	// a duplicate.
	lockFp := dedupFp
	if lockFp == "" {
		lockFp = routeFp
	}
	mi, _ := c.placing.LoadOrStore(lockFp, &sync.Mutex{})
	fpMu := mi.(*sync.Mutex)
	fpMu.Lock()
	defer fpMu.Unlock()

	if dedupFp != "" {
		if j := c.usableJobByFingerprint(dedupFp); j != nil {
			c.met.deduped.Inc()
			return j.view(), nil
		}
	}

	rep, home, st, adopted, err := c.placeOnRoute(ctx, routeFp, dedupFp, "", req)
	if err != nil {
		return JobStatus{}, err
	}
	j := &fleetJob{
		id: newFleetJobID(),
		// The replica reports the derived fingerprint it assigned; for
		// base-by-reference deltas this is the first time it is known.
		fingerprint: st.Fingerprint,
		routeFp:     routeFp,
		req:         req,
		submitted:   time.Now().UTC(),
		replicaID:   rep.id,
		remoteID:    st.ID,
		last:        st,
	}
	c.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.byFp[j.fingerprint] = j.id
	c.mu.Unlock()
	c.met.submitted.Inc()
	if req.IsDelta() {
		c.met.deltas.Inc()
	}
	if adopted {
		c.met.adopted.Inc()
	}
	if rep.id != home.id {
		// The home shard did not take the job: count why.
		if home.state == ReplicaSuspect {
			c.met.hedged.Inc()
		} else {
			c.met.fallback.Inc()
		}
		if req.IsDelta() {
			// The delta landed off the base's home shard: it planned cold
			// (the fallback replica has no warm cache), but it planned.
			c.met.deltaFall.Inc()
			c.emit(obsv.Event{Type: EventDeltaFallback, Msg: j.id, V: map[string]float64{
				"home_suspect": boolTo01(home.state == ReplicaSuspect)}})
		}
	}
	return j.view(), nil
}

// materialize resolves a delta request into the form the fleet can place
// anywhere: the base spec inline, Base rewritten to the base fingerprint.
// It returns the request, the fingerprint to route by (the base's for
// delta jobs) and the derived fingerprint for dedup/adoption ("" when it
// cannot be computed coordinator-side — an untracked base fingerprint
// without an inline spec — in which case only the replicas holding the
// base spec can serve the job).
func (c *Coordinator) materialize(req service.Request) (service.Request, string, string, error) {
	if !req.IsDelta() {
		fp, err := service.Fingerprint(req)
		if err != nil {
			return service.Request{}, "", "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return req, fp, fp, nil
	}
	var baseJob *fleetJob
	switch len(req.Base) {
	case 16: // fleet job ID
		baseJob = c.lookup(req.Base)
		if baseJob == nil && !req.HasInlineProblem() {
			return service.Request{}, "", "", fmt.Errorf("%w: delta base job %q", ErrNotFound, req.Base)
		}
	case 32: // plan-cache fingerprint; the fleet may or may not track it
		c.mu.Lock()
		if id, ok := c.byFp[req.Base]; ok {
			baseJob = c.jobs[id]
		}
		c.mu.Unlock()
	default:
		return service.Request{}, "", "", fmt.Errorf("%w: base %q is neither a 16-hex job ID nor a 32-hex fingerprint", ErrBadRequest, req.Base)
	}
	baseFp := req.Base
	if baseJob != nil {
		baseFp = baseJob.fingerprint
		// Inject the tracked base job's derived spec so any replica can
		// serve this delta, resolved by the same rule the replica's manager
		// applies, keeping fingerprints stable across home and fallback
		// placements.
		baseSelf, err := baseJob.req.Derive(baseJob.req.Problem)
		if err != nil {
			return service.Request{}, "", "", fmt.Errorf("%w: base job %s spec: %v", ErrBadRequest, req.Base, err)
		}
		req, _ = service.ResolveBase(req, &baseSelf) // fails only without a base
		req.Base = baseFp
	}
	dedupFp := ""
	if req.HasInlineProblem() {
		fp, err := service.Fingerprint(req)
		if err != nil {
			return service.Request{}, "", "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		dedupFp = fp
	}
	if len(baseFp) != 32 {
		// An unresolvable job-ID base with an inline spec: route by the
		// derived fingerprint; the replica will plan it cold.
		baseFp = dedupFp
	}
	return req, baseFp, dedupFp, nil
}

// usableJobByFingerprint returns the fingerprint's tracked job when it can
// answer a duplicate submission: live, or terminal-and-done. A failed or
// cancelled job steps aside for a fresh attempt.
func (c *Coordinator) usableJobByFingerprint(fp string) *fleetJob {
	c.mu.Lock()
	id, ok := c.byFp[fp]
	j := c.jobs[id]
	c.mu.Unlock()
	if !ok || j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.last.State.Terminal() || j.last.State == service.StateDone {
		// Returning under j.mu is fine: view() re-locks after we return.
		return j
	}
	return nil
}

// homeInfo names the key's true home shard (first on the ring regardless
// of health) so routing decisions can be attributed.
type homeInfo struct {
	id    string
	state ReplicaState
}

// route returns the routable replicas for a fingerprint — alive ones in
// ring order, then suspect ones as a last resort — plus the identity and
// state of the true home shard. Dead replicas stay on the ring (their
// keys come home when they revive) but are never routed to.
func (c *Coordinator) route(fp string) ([]*replica, homeInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.ring.Sequence(fp)
	var alive, suspect []*replica
	var home homeInfo
	for i, id := range seq {
		r := c.replicas[id]
		if r == nil {
			continue
		}
		if i == 0 {
			home = homeInfo{id: r.id, state: r.state}
		}
		switch r.state {
		case ReplicaAlive:
			alive = append(alive, r)
		case ReplicaSuspect:
			suspect = append(suspect, r)
		}
	}
	return append(alive, suspect...), home
}

// placeOnRoute places req on the first replica along routeFp's route that
// takes it, skipping the replica skip. It returns that replica, the route's
// true home shard, the placed status and whether the replica adopted work
// it already owned. With nothing routable the error is ErrNoReplicas;
// otherwise it wraps the last placement failure.
func (c *Coordinator) placeOnRoute(ctx context.Context, routeFp, fp, skip string, req service.Request) (*replica, homeInfo, service.Status, bool, error) {
	order, home := c.route(routeFp)
	var lastErr error
	for _, rep := range order {
		if rep.id == skip {
			continue
		}
		st, adopted, err := c.place(ctx, rep, fp, req)
		if err != nil {
			lastErr = err
			continue
		}
		return rep, home, st, adopted, nil
	}
	if lastErr == nil {
		return nil, home, service.Status{}, false, ErrNoReplicas
	}
	return nil, home, service.Status{}, false, fmt.Errorf("fleet: no replica took the job: %w", lastErr)
}

// place puts one fingerprint's work on one replica, idempotently: the
// replica is first asked whether it already owns a live or done job with
// the fingerprint (adoption), and only then submitted to. Adoption is
// what makes a failover retried twice — or raced against a duplicate
// submission — train exactly once per replica.
func (c *Coordinator) place(ctx context.Context, rep *replica, fp string, req service.Request) (st service.Status, adopted bool, err error) {
	cctx, cancel := c.callContext(ctx)
	defer cancel()
	if fp != "" { // unknown derived fingerprint: nothing to adopt by
		st, ok, err := rep.client.FindByFingerprint(cctx, fp)
		if err != nil {
			// Whether the replica already owns the work is unknown;
			// submitting could plan it twice there.
			return service.Status{}, false, err
		}
		if ok && st.State != service.StateFailed && st.State != service.StateCancelled {
			return st, true, nil
		}
	}
	st, err = rep.client.Submit(cctx, req)
	return st, false, err
}

// callContext bounds one coordinator→replica call, retries included, by
// Options.CallTimeout.
func (c *Coordinator) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.opt.CallTimeout)
}

// lookup resolves a fleet job ID.
func (c *Coordinator) lookup(id string) *fleetJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobs[id]
}

// replicaByID resolves a replica.
func (c *Coordinator) replicaByID(id string) *replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[id]
}

// owner resolves the replica a job currently lives on and the job's ID
// there; the replica is nil when it is unknown.
func (c *Coordinator) owner(j *fleetJob) (*replica, string) {
	j.mu.Lock()
	rid, remote := j.replicaID, j.remoteID
	j.mu.Unlock()
	return c.replicaByID(rid), remote
}

// Get returns a job's fleet status, refreshed from its replica when the
// job is live and the replica reachable; otherwise the last observed
// snapshot (the monitor keeps it fresh and hands the job off if its
// replica is dead).
func (c *Coordinator) Get(ctx context.Context, id string) (JobStatus, error) {
	j := c.lookup(id)
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	c.refresh(ctx, j)
	return j.view(), nil
}

// List returns every tracked job's last observed status in submission
// order, without touching the replicas.
func (c *Coordinator) List() []JobStatus {
	c.mu.Lock()
	jobs := make([]*fleetJob, 0, len(c.order))
	for _, id := range c.order {
		jobs = append(jobs, c.jobs[id])
	}
	c.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Result returns a finished job's result — from the coordinator's cache
// when the monitor already fetched it (which also survives the owning
// replica dying afterwards), else proxied from the replica.
func (c *Coordinator) Result(ctx context.Context, id string) (*service.Result, error) {
	j := c.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	if res == nil {
		rep, remote := c.owner(j)
		if rep == nil {
			return nil, ErrNoReplicas
		}
		var err error
		if res, err = c.cacheResult(ctx, j, rep, remote); err != nil {
			return nil, err
		}
	}
	r := *res
	r.JobID = id
	return &r, nil
}

// Cancel proxies a cancellation to the owning replica.
func (c *Coordinator) Cancel(ctx context.Context, id string) (JobStatus, error) {
	j := c.lookup(id)
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	rep, remote := c.owner(j)
	if rep == nil {
		return JobStatus{}, ErrNoReplicas
	}
	cctx, cancel := c.callContext(ctx)
	defer cancel()
	if _, err := rep.client.Cancel(cctx, remote); err != nil {
		return JobStatus{}, err
	}
	c.refresh(ctx, j)
	return j.view(), nil
}

// Fleet snapshots replica health and routing counters for /v1/fleet.
func (c *Coordinator) Fleet() FleetStatus {
	c.mu.Lock()
	replicas := make([]*replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		replicas = append(replicas, r)
	}
	jobs := make([]*fleetJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	fs := FleetStatus{
		Jobs:                 len(jobs),
		Failovers:            c.failovers,
		Handoffs:             c.handoffs,
		HeartbeatIntervalSec: c.opt.HeartbeatInterval.Seconds(),
	}
	c.mu.Unlock()

	liveOn := make(map[string]int)
	for _, j := range jobs {
		j.mu.Lock()
		if !j.last.State.Terminal() {
			fs.LiveJobs++
			liveOn[j.replicaID]++
		}
		j.mu.Unlock()
	}
	now := time.Now()
	for _, r := range replicas {
		c.mu.Lock()
		info := ReplicaInfo{
			ID: r.id, URL: r.url, State: r.state,
			LastHeartbeatAgoSec: now.Sub(r.lastBeat).Seconds(),
			LiveJobs:            liveOn[r.id],
		}
		c.mu.Unlock()
		switch info.State {
		case ReplicaAlive:
			fs.Alive++
		case ReplicaSuspect:
			fs.Suspect++
		case ReplicaDead:
			fs.Dead++
		}
		fs.Replicas = append(fs.Replicas, info)
	}
	sort.Slice(fs.Replicas, func(i, k int) bool { return fs.Replicas[i].ID < fs.Replicas[k].ID })
	return fs
}

// view snapshots the job as its fleet-facing status.
func (j *fleetJob) view() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.last
	st.ID = j.id
	st.SubmittedAt = j.submitted
	st.Fingerprint = j.fingerprint
	return JobStatus{Status: st, Replica: j.replicaID, RemoteID: j.remoteID, Handoffs: j.handoffs}
}

// refresh pulls a live job's status from its replica; failures leave the
// last snapshot standing (the monitor's failover path owns recovery).
// Refreshes run concurrently (Get and the monitor's sweep), so a slow read
// can land after a fast one: a read is kept only while the job is still
// live and still on the replica it was read from.
func (c *Coordinator) refresh(ctx context.Context, j *fleetJob) {
	j.mu.Lock()
	terminal := j.last.State.Terminal()
	j.mu.Unlock()
	if terminal {
		return
	}
	rep, remote := c.owner(j)
	if rep == nil {
		return
	}
	cctx, cancel := c.callContext(ctx)
	defer cancel()
	st, err := rep.client.Get(cctx, remote)
	if err != nil {
		return
	}
	done := false
	j.mu.Lock()
	if j.remoteID == remote && !j.last.State.Terminal() {
		j.last = st
		done = st.State == service.StateDone && j.result == nil
	}
	j.mu.Unlock()
	if done {
		_, _ = c.cacheResult(ctx, j, rep, remote) // on failure, Result fetches it on demand
	}
}

// cacheResult fetches a done job's result from the replica and copies it
// into the coordinator, so the result outlives the replica that computed
// it. The copy is kept only while remote is still the job's ID there (a
// handoff may have moved it) and no result is cached yet; the fetched
// result is returned either way.
func (c *Coordinator) cacheResult(ctx context.Context, j *fleetJob, rep *replica, remote string) (*service.Result, error) {
	cctx, cancel := c.callContext(ctx)
	defer cancel()
	res, err := rep.client.Result(cctx, remote)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	if j.result == nil && j.remoteID == remote {
		j.result = res
	}
	j.mu.Unlock()
	return res, nil
}

// monitor is the coordinator's heartbeat: every half heartbeat interval
// it advances the replica state machine inline (cheap, no network), and
// kicks one background pass that refreshes live jobs and fails over jobs
// stranded on dead replicas.
func (c *Coordinator) monitor() {
	defer close(c.done)
	interval := c.opt.HeartbeatInterval / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweepStates()
			go c.backgroundSweep()
		}
	}
}

// sweepStates advances alive → suspect → dead by heartbeat silence.
func (c *Coordinator) sweepStates() {
	now := time.Now()
	type transition struct {
		id    string
		to    ReplicaState
		quiet time.Duration
		jobs  int
	}
	var trans []transition
	c.mu.Lock()
	for _, r := range c.replicas {
		quiet := now.Sub(r.lastBeat)
		switch {
		case r.state == ReplicaAlive && quiet > c.opt.SuspectAfter:
			r.state = ReplicaSuspect
			trans = append(trans, transition{id: r.id, to: ReplicaSuspect, quiet: quiet})
		case r.state == ReplicaSuspect && quiet > c.opt.DeadAfter:
			r.state = ReplicaDead
			c.failovers++
			trans = append(trans, transition{id: r.id, to: ReplicaDead, quiet: quiet, jobs: c.liveJobsOnLocked(r.id)})
		}
	}
	alive, suspect, dead := c.stateCountsLocked()
	c.mu.Unlock()

	if len(trans) == 0 {
		return
	}
	c.met.setStates(alive, suspect, dead)
	for _, tr := range trans {
		if tr.to == ReplicaSuspect {
			c.emit(obsv.Event{Type: EventReplicaSuspect, Msg: tr.id,
				V: map[string]float64{"quiet_seconds": tr.quiet.Seconds()}})
		} else {
			c.met.failovers.Inc()
			c.emit(obsv.Event{Type: EventReplicaDead, Msg: tr.id, V: map[string]float64{
				"quiet_seconds": tr.quiet.Seconds(), "jobs_failing_over": float64(tr.jobs)}})
		}
	}
}

// backgroundSweep runs at most one network pass at a time: refresh every
// live job's status (caching done results), then hand off jobs stranded
// on dead replicas.
func (c *Coordinator) backgroundSweep() {
	if !c.busy.CompareAndSwap(false, true) {
		return
	}
	defer c.busy.Store(false)
	ctx := context.Background()

	c.mu.Lock()
	jobs := make([]*fleetJob, 0, len(c.order))
	for _, id := range c.order {
		jobs = append(jobs, c.jobs[id])
	}
	c.mu.Unlock()

	for _, j := range jobs {
		c.refresh(ctx, j)
		j.mu.Lock()
		stranded := !j.last.State.Terminal()
		rid := j.replicaID
		j.mu.Unlock()
		if !stranded {
			continue
		}
		rep := c.replicaByID(rid)
		if rep == nil {
			continue
		}
		c.mu.Lock()
		deadOwner := rep.state == ReplicaDead
		c.mu.Unlock()
		if deadOwner {
			c.handoff(ctx, j, rid)
		}
	}
}

// handoff re-serves one job stranded on a dead replica to the next
// routable replica along the ring, adopting work the target already owns.
// With nothing routable the job stays put; the next sweep retries.
func (c *Coordinator) handoff(ctx context.Context, j *fleetJob, from string) {
	j.mu.Lock()
	if j.last.State.Terminal() || j.replicaID != from {
		j.mu.Unlock()
		return
	}
	fp, routeFp, req := j.fingerprint, j.routeFp, j.req
	j.mu.Unlock()

	rep, _, st, adopted, err := c.placeOnRoute(ctx, routeFp, fp, from, req)
	if err != nil {
		return
	}
	j.mu.Lock()
	if j.last.State.Terminal() || j.replicaID != from {
		// The job finished on its old replica (or moved) while this
		// placement was in flight. Repointing it now would turn a terminal
		// job live again, and no refresh revisits terminal jobs; the placed
		// copy is duplicate work, as under a partition.
		j.mu.Unlock()
		return
	}
	j.replicaID, j.remoteID, j.last = rep.id, st.ID, st
	j.handoffs++
	n := j.handoffs
	j.mu.Unlock()
	c.mu.Lock()
	c.handoffs++
	c.mu.Unlock()
	c.met.handoffs.Inc()
	if adopted {
		c.met.adopted.Inc()
	}
	c.emit(obsv.Event{Type: EventJobHandoff, Msg: fmt.Sprintf("%s %s->%s", j.id, from, rep.id),
		V: map[string]float64{"handoffs": float64(n), "adopted": boolTo01(adopted)}})
}

// emit sends one lifecycle event; sink errors are counted, not fatal.
func (c *Coordinator) emit(e obsv.Event) {
	if c.opt.Events == nil {
		return
	}
	if err := c.opt.Events.Emit(e); err != nil {
		c.met.eventErrs.Inc()
	}
}
