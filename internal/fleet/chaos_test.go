package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/obsv"
	"repro/internal/serialize"
	"repro/internal/service"
	"repro/internal/tsn"
)

// chaosSeeds are the schedules every fleet chaos drill runs under,
// mirroring the service chaos suite. Each subtest logs its injector line
// (seed + schedule) so any failure reproduces bit-exactly.
var chaosSeeds = []int64{1, 42, 977}

// memSink captures lifecycle events for assertions.
type memSink struct {
	mu     sync.Mutex
	events []obsv.Event
}

func (s *memSink) Emit(e obsv.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
	return nil
}

func (s *memSink) count(typ string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// tinyProblemJSON is the fleet tests' problem spec — the same 4-ES/2-SW
// fixture shape the service suite trains on in milliseconds.
func tinyProblemJSON(t testing.TB) serialize.ProblemJSON {
	t.Helper()
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", graph.KindEndStation)
	}
	for i := 0; i < 2; i++ {
		g.AddVertex("", graph.KindSwitch)
	}
	for es := 0; es < 4; es++ {
		for sw := 4; sw < 6; sw++ {
			if err := g.AddEdge(es, sw, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.AddEdge(4, 5, 1); err != nil {
		t.Fatal(err)
	}
	net := tsn.DefaultNetwork()
	mkFlow := func(id, src, dst int) tsn.Flow {
		return tsn.Flow{ID: id, Src: src, Dsts: []int{dst}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 64}
	}
	prob := &core.Problem{
		Connections:     g,
		Net:             net,
		Flows:           tsn.FlowSet{mkFlow(0, 0, 1), mkFlow(1, 2, 3), mkFlow(2, 1, 2)},
		NBF:             &nbf.StatelessRecovery{MaxAlternatives: 3},
		ReliabilityGoal: 1e-6,
		Library:         asil.DefaultLibrary(),
		MaxESDegree:     2,
	}
	if err := prob.Validate(); err != nil {
		t.Fatalf("tiny problem invalid: %v", err)
	}
	return serialize.EncodeProblem(prob, "stateless-greedy")
}

// tinyRequest is a fast-planning request; the planner seed varies the
// fingerprint, so distinct seeds are distinct problems to the fleet.
func tinyRequest(t testing.TB, seed int64) service.Request {
	intp := func(v int) *int { return &v }
	return service.Request{
		Problem: tinyProblemJSON(t),
		Params: service.PlanParams{
			Epochs: 2, Steps: 24, K: 4, MLPWidth: 16,
			GCNLayers: intp(1), AnalyzerCache: intp(1024), Seed: seed,
		},
	}
}

// chaosTimings are the compressed state-machine timings every drill runs
// at: heartbeats every 25ms, suspect past 75ms of silence, dead past
// 150ms, and a 2s cap per coordinator→replica call so injected hangs
// turn into ring fallbacks inside the test budget.
func chaosOptions(sink obsv.Sink, transport http.RoundTripper) Options {
	client := &http.Client{}
	if transport != nil {
		client.Transport = transport
	}
	return Options{
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      75 * time.Millisecond,
		DeadAfter:         150 * time.Millisecond,
		CallTimeout:       2 * time.Second,
		HTTP:              client,
		Events:            sink,
	}
}

// testReplica is one in-process nptsn-serve: a real Manager behind a real
// HTTP server, heartbeating at the coordinator by direct method call (the
// Agent's wire loop is covered by the daemon tests).
type testReplica struct {
	t    *testing.T
	id   string
	m    *service.Manager
	srv  *httptest.Server
	c    *Coordinator
	mu   sync.Mutex
	stop context.CancelFunc
	done chan struct{}
	dead bool
}

func startTestReplica(t *testing.T, c *Coordinator, id string, opt service.Options) *testReplica {
	t.Helper()
	m, err := service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	r := &testReplica{t: t, id: id, m: m, c: c}
	r.srv = httptest.NewServer(service.NewMux(m, nil))
	c.Register(id, r.srv.URL)
	r.startBeats()
	t.Cleanup(func() { r.kill() })
	return r
}

func (r *testReplica) startBeats() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	r.mu.Lock()
	r.stop, r.done = cancel, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(r.c.opt.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.c.Heartbeat(r.id)
			}
		}
	}()
}

// partition silences the heartbeat while the replica keeps serving — the
// coordinator-cannot-see-replica failure mode.
func (r *testReplica) partition() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// heal re-registers and resumes heartbeats after a partition.
func (r *testReplica) heal() {
	r.c.Register(r.id, r.srv.URL)
	r.startBeats()
}

// kill is process death: heartbeats stop, the listener drops every
// connection, and running jobs are interrupted immediately.
func (r *testReplica) kill() {
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return
	}
	r.dead = true
	r.mu.Unlock()
	r.partition()
	r.srv.CloseClientConnections()
	r.srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired deadline: interrupt, don't drain
	r.m.Shutdown(ctx)
}

// jobCounts tallies the replica's jobs carrying a fingerprint: total and
// completed. The per-replica total must never exceed 1 — that is the
// adoption-by-fingerprint guarantee every failover leans on.
func (r *testReplica) jobCounts(fp string) (total, done int) {
	for _, st := range r.m.List() {
		if st.Fingerprint != fp {
			continue
		}
		total++
		if st.State == service.StateDone {
			done++
		}
	}
	return total, done
}

// assertAdoptionHeld fails the test if any replica holds more than one
// job for the fingerprint.
func assertAdoptionHeld(t *testing.T, fp string, replicas ...*testReplica) (doneTotal int) {
	t.Helper()
	for _, r := range replicas {
		total, done := r.jobCounts(fp)
		if total > 1 {
			t.Errorf("replica %s holds %d jobs for fingerprint %s — adoption failed to dedup", r.id, total, fp)
		}
		doneTotal += done
	}
	return doneTotal
}

// requestHomedOn searches planner seeds until the request's fingerprint
// hashes home to the wanted replica, so drills can aim a job at a victim.
func requestHomedOn(t *testing.T, c *Coordinator, want string) (service.Request, string) {
	t.Helper()
	for seed := int64(1); seed < 500; seed++ {
		req := tinyRequest(t, seed)
		fp, err := service.Fingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		owner := home(c.ring, fp)
		c.mu.Unlock()
		if owner == want {
			return req, fp
		}
	}
	t.Fatalf("no seed under 500 homes on replica %s", want)
	return service.Request{}, ""
}

// waitFleetState polls the coordinator until the job reaches want.
func waitFleetState(t *testing.T, c *Coordinator, id string, want service.State) JobStatus {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (%q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitReplicaRunning polls a replica's manager directly (no wire, so no
// injected faults) until its copy of the fingerprint is running.
func waitReplicaRunning(t *testing.T, r *testReplica, fp string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		for _, st := range r.m.List() {
			if st.Fingerprint == fp && st.State == service.StateRunning {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fingerprint %s never started running on %s", fp, r.id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// planDelay arms a replica manager with a seeded service.plan delay so
// jobs are reliably mid-run when a drill strikes.
func planDelay(seed int64, d time.Duration) *fault.Injector {
	return fault.New(seed, fault.Rule{Point: fault.PointPlan, Kind: fault.KindDelay, Prob: 1, Delay: d})
}

// TestChaosFleetReplicaDeathFailsOver is the flagship drill of the fleet
// failure model: wire-level chaos on every coordinator→replica call
// (deterministic torn bodies and a hang, plus probabilistic delays), the
// job's home replica killed mid-run, and the acceptance bar checked end
// to end — the job completes EXACTLY once across the survivors, the
// result carries its certificate, the coordinator reports the dead
// replica, and the handoff is visible in events and counters.
func TestChaosFleetReplicaDeathFailsOver(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed,
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindDelay, Prob: 0.25, Delay: 20 * time.Millisecond},
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindTorn, Calls: []int{3, 9}, TornBytes: 24},
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindHang, Calls: []int{6}},
			)
			t.Log(in.String())
			sink := &memSink{}
			c := New(chaosOptions(sink, &fault.Transport{In: in}))
			defer c.Close()

			replicas := make(map[string]*testReplica)
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("r%d", i)
				replicas[id] = startTestReplica(t, c, id, service.Options{
					Workers: 1, QueueSize: 8, Fault: planDelay(seed, time.Second),
				})
			}

			req := tinyRequest(t, seed)
			req.Certify = true
			fp, err := service.Fingerprint(req)
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if st.Replica == "" {
				t.Fatalf("job not placed: %+v", st)
			}

			// Wait until the job is mid-run on its owner, then kill that
			// replica — the crash the heartbeat machinery exists to catch.
			// The owner's manager is watched directly: the coordinator-side
			// view can lag behind injected wire faults.
			victim := replicas[st.Replica]
			if victim == nil {
				t.Fatalf("job owned by unknown replica %q", st.Replica)
			}
			waitReplicaRunning(t, victim, fp)
			victim.kill()

			final := waitFleetState(t, c, st.ID, service.StateDone)
			if final.Replica == victim.id {
				t.Fatalf("job finished on the killed replica %s", victim.id)
			}
			if final.Handoffs < 1 {
				t.Fatalf("job finished with %d handoffs, want >= 1", final.Handoffs)
			}

			res, err := c.Result(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if res.Certificate == nil || !res.GuaranteeMet {
				t.Fatalf("failover result lacks its certificate: %+v", res)
			}

			// Exactly once: across the survivors the fingerprint completed a
			// single time, and no replica holds a duplicate.
			var survivors []*testReplica
			for id, r := range replicas {
				if id != victim.id {
					survivors = append(survivors, r)
				}
			}
			if done := assertAdoptionHeld(t, fp, survivors...); done != 1 {
				t.Fatalf("fingerprint completed %d times across survivors, want exactly 1", done)
			}

			// The control plane saw it all: dead replica reported, lifecycle
			// events recorded.
			fs := c.Fleet()
			if fs.Dead != 1 {
				t.Fatalf("fleet reports %d dead replicas, want 1: %+v", fs.Dead, fs)
			}
			if fs.Handoffs < 1 || fs.Failovers < 1 {
				t.Fatalf("fleet counters missed the failover: %+v", fs)
			}
			for _, typ := range []string{EventReplicaSuspect, EventReplicaDead, EventJobHandoff} {
				if sink.count(typ) == 0 {
					t.Errorf("no %s event recorded", typ)
				}
			}
			t.Log(in.Stats())
		})
	}
}

// TestChaosFleetTornWireStorm: heavy probabilistic torn-body faults on
// every coordinator→replica call, no crashes. The per-replica client
// retries through the garbage and adopts by fingerprint, so every job
// still lands at most once per replica and every submission is answered.
func TestChaosFleetTornWireStorm(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed,
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindTorn, Prob: 0.3, TornBytes: 16},
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindDelay, Prob: 0.2, Delay: 10 * time.Millisecond},
			)
			t.Log(in.String())
			c := New(chaosOptions(nil, &fault.Transport{In: in}))
			defer c.Close()

			var replicas []*testReplica
			for i := 0; i < 3; i++ {
				replicas = append(replicas, startTestReplica(t, c, fmt.Sprintf("r%d", i),
					service.Options{Workers: 1, QueueSize: 8}))
			}

			ctx := context.Background()
			const jobs = 4
			type placed struct {
				st JobStatus
				fp string
			}
			var all []placed
			for i := 0; i < jobs; i++ {
				req := tinyRequest(t, 1000*seed+int64(i))
				fp, err := service.Fingerprint(req)
				if err != nil {
					t.Fatal(err)
				}
				st, err := c.Submit(ctx, req)
				if err != nil {
					t.Fatalf("submit %d through the storm: %v", i, err)
				}
				all = append(all, placed{st, fp})
			}
			for _, p := range all {
				waitFleetState(t, c, p.st.ID, service.StateDone)
				// Results must come through the torn wire too; the coordinator
				// retries or serves its cache.
				deadline := time.Now().Add(30 * time.Second)
				for {
					if _, err := c.Result(ctx, p.st.ID); err == nil {
						break
					} else if time.Now().After(deadline) {
						t.Fatalf("result never served through the storm: %v", err)
					}
					time.Sleep(10 * time.Millisecond)
				}
				// At most one copy per replica, no matter how many retries the
				// torn responses forced.
				assertAdoptionHeld(t, p.fp, replicas...)
			}
			t.Log(in.Stats())
		})
	}
}

// TestChaosFleetPartitionHandsOffAndHeals: a replica partitioned from the
// coordinator mid-run (server healthy, heartbeats lost) is declared
// suspect, then dead; its job is re-served on a survivor and the
// coordinator serves exactly one result. When the partition heals the
// replica rejoins the ring as alive.
func TestChaosFleetPartitionHandsOffAndHeals(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sink := &memSink{}
			c := New(chaosOptions(sink, nil))
			defer c.Close()

			replicas := make(map[string]*testReplica)
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("r%d", i)
				replicas[id] = startTestReplica(t, c, id, service.Options{
					Workers: 1, QueueSize: 8, Fault: planDelay(seed, 800*time.Millisecond),
				})
			}

			// Aim the job at r0 so the drill controls who gets partitioned.
			req, fp := requestHomedOn(t, c, "r0")
			ctx := context.Background()
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if st.Replica != "r0" {
				t.Fatalf("job placed on %s, want its home shard r0", st.Replica)
			}
			waitFleetState(t, c, st.ID, service.StateRunning)
			replicas["r0"].partition()

			final := waitFleetState(t, c, st.ID, service.StateDone)
			if final.Replica == "r0" {
				t.Fatalf("job finished on the partitioned replica")
			}
			if _, err := c.Result(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
			if sink.count(EventReplicaSuspect) == 0 || sink.count(EventReplicaDead) == 0 {
				t.Error("partition produced no suspect/dead events")
			}

			// The partitioned replica kept working underneath: it may finish
			// its own copy (duplicate work is the honest cost of a partition),
			// but adoption still bounds every replica to one copy.
			assertAdoptionHeld(t, fp, replicas["r1"], replicas["r2"])
			if total, _ := replicas["r0"].jobCounts(fp); total > 1 {
				t.Errorf("partitioned replica holds %d copies, want at most 1", total)
			}

			// Heal: the replica re-registers, turns alive, and its ring points
			// were never dropped.
			replicas["r0"].heal()
			deadline := time.Now().Add(10 * time.Second)
			for {
				if fs := c.Fleet(); fs.Alive == 3 && fs.Dead == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("healed replica never rejoined: %+v", c.Fleet())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if sink.count(EventReplicaUp) < 4 { // 3 registrations + 1 rejoin
				t.Errorf("%d replica_up events, want >= 4 (rejoin missing)", sink.count(EventReplicaUp))
			}
		})
	}
}

// TestChaosFleetDeltaFailoverPlansCold: the delta-routing failure drill.
// A delta job shards by its BASE fingerprint so it lands where the warm
// cache lives; when that home shard dies, the materialized request (base
// spec inline) must degrade to a cold from-scratch plan on a survivor —
// a dead home shard costs the speedup, never the job, and never a 5xx.
func TestChaosFleetDeltaFailoverPlansCold(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(seed,
				fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindDelay, Prob: 0.2, Delay: 10 * time.Millisecond},
			)
			t.Log(in.String())
			sink := &memSink{}
			c := New(chaosOptions(sink, &fault.Transport{In: in}))
			defer c.Close()

			replicas := make(map[string]*testReplica)
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("r%d", i)
				replicas[id] = startTestReplica(t, c, id, service.Options{Workers: 1, QueueSize: 8})
			}

			// Aim the base at r0 so the drill controls whose death matters.
			req, baseFp := requestHomedOn(t, c, "r0")
			ctx := context.Background()
			base, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if base.Replica != "r0" {
				t.Fatalf("base placed on %s, want its home shard r0", base.Replica)
			}
			waitFleetState(t, c, base.ID, service.StateDone)

			// Healthy path first: a delta against the finished base routes to
			// the SAME home shard and warm-starts from its plan cache.
			warm, err := c.Submit(ctx, service.Request{
				Base:  base.ID,
				Delta: &serialize.DeltaJSON{RemoveFlows: []int{2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Replica != "r0" {
				t.Fatalf("delta with a live home placed on %s, want r0", warm.Replica)
			}
			wfinal := waitFleetState(t, c, warm.ID, service.StateDone)
			if wfinal.Warm == nil || !wfinal.Warm.SeedSolved {
				t.Fatalf("delta on its home shard did not warm-start: %+v", wfinal.Warm)
			}
			if sink.count(EventDeltaFallback) != 0 {
				t.Fatal("on-home delta counted as a fallback")
			}

			// Kill the home shard and wait until the coordinator knows.
			replicas["r0"].kill()
			deadline := time.Now().Add(10 * time.Second)
			for c.Fleet().Dead != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("killed replica never declared dead: %+v", c.Fleet())
				}
				time.Sleep(5 * time.Millisecond)
			}

			// The same kind of delta now has a dead home. Submission must
			// still be accepted and complete on a survivor — planned cold
			// from the inline base spec, flagged as a delta fallback.
			cold, err := c.Submit(ctx, service.Request{
				Base:  baseFp,
				Delta: &serialize.DeltaJSON{RemoveFlows: []int{1}},
			})
			if err != nil {
				t.Fatalf("delta with a dead home shard rejected: %v", err)
			}
			if cold.Replica == "r0" {
				t.Fatal("delta placed on the dead home shard")
			}
			cfinal := waitFleetState(t, c, cold.ID, service.StateDone)
			if cfinal.Warm != nil && cfinal.Warm.SeedSolved {
				t.Fatalf("fallback replica claims a warm start it cannot have: %+v", cfinal.Warm)
			}
			res, err := c.Result(ctx, cold.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !res.GuaranteeMet || res.Solution == nil {
				t.Fatalf("cold fallback plan did not certify: %+v", res)
			}
			if sink.count(EventDeltaFallback) == 0 {
				t.Error("off-home delta produced no delta_fallback event")
			}
			t.Log(in.Stats())
		})
	}
}

// TestChaosFleetCoordinatorRestartAdoptsFinishedWork: the coordinator is
// the only component without durable state — a restarted coordinator
// re-learns the fleet from registrations, and a resubmitted problem is
// answered by fingerprint adoption from the home replica's store instead
// of being planned again.
func TestChaosFleetCoordinatorRestartAdoptsFinishedWork(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c1 := New(chaosOptions(nil, nil))
			var replicas []*testReplica
			for i := 0; i < 3; i++ {
				replicas = append(replicas, startTestReplica(t, c1, fmt.Sprintf("r%d", i),
					service.Options{Workers: 1, QueueSize: 8}))
			}

			req := tinyRequest(t, 7000+seed)
			fp, err := service.Fingerprint(req)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			st, err := c1.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			waitFleetState(t, c1, st.ID, service.StateDone)
			owner := st.Replica

			// Coordinator dies; replicas keep their stores. A new coordinator
			// boots empty and the replicas re-register with it.
			c1.Close()
			for _, r := range replicas {
				r.partition() // stop beating at the dead coordinator
			}
			c2 := New(chaosOptions(nil, nil))
			defer c2.Close()
			for _, r := range replicas {
				r.c = c2
				r.heal()
			}

			// The same problem resubmitted: answered done, immediately, by
			// adopting the finished job — not planned a second time.
			st2, err := c2.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if st2.State != service.StateDone {
				t.Fatalf("resubmission after coordinator restart = %s, want done by adoption", st2.State)
			}
			if st2.Replica != owner {
				t.Fatalf("resubmission adopted from %s, want the home shard %s", st2.Replica, owner)
			}
			res, err := c2.Result(ctx, st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if res.Solution == nil {
				t.Fatalf("adopted result has no solution: %+v", res)
			}
			if done := assertAdoptionHeld(t, fp, replicas...); done != 1 {
				t.Fatalf("fingerprint completed %d times across the fleet, want exactly 1", done)
			}
		})
	}
}
