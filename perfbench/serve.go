package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/scenarios"
	"repro/internal/serialize"
	"repro/internal/service"
	"repro/internal/tsn"
)

// Serve workload sizing.
const (
	serveClients = 2
	// serveSetups is how many times set-up runs for setup_s; the last
	// set-up's server is the one measured.
	serveSetups = 5
	// zooSeed seeds the pretraining sweep. The zoo plays the part of a
	// deployed model, the same in every run; the traffic comes from the
	// run's seed.
	zooSeed = 1
	// costJobs is how many leading requests of each client's stream
	// quality.plan_cost averages over, so it repeats exactly at a seed.
	costJobs = 25
	// pollEvery is the status polling interval of a client.
	pollEvery = 2 * time.Millisecond
	zooFlows  = 3
	baseFlows = 5
	// basesPerFamily is how many warm bases each zoo family gets.
	basesPerFamily = 2
	// rssJobs is the job count at which the server's peak RSS is read, so
	// that peak_rss_mb reflects a fixed amount of work: the server keeps
	// every job, and a faster server serves more of them in --seconds.
	rssJobs = 1000
)

// Tier schedules: each client's stream is a sequence of blocks holding
// exactly these tiers, in a seeded order within the block. The shares are
// chosen, not derived: nothing in the repository records how often each
// kind of request arrives. serve-replan weighs the three fast tiers alike.
// serve-mix has one cold and one warm-start training job per 384
// requests: training then holds the worker about a third of the time
// (service.train_share), enough for a change to either side to show in
// ops_per_s, while the mean training time of a run, which varies with the
// instances trained, does not swamp it.
var (
	replanBlock = block(map[tier]int{tierCache: 4, tierWarm: 4, tierZoo: 4})
	mixBlock    = block(map[tier]int{tierCold: 1, tierWarmTrain: 1, tierCache: 128, tierWarm: 127, tierZoo: 127})
)

// block lists n copies of each tier, in a fixed order.
func block(counts map[tier]int) []tier {
	var out []tier
	for _, t := range []tier{tierCache, tierWarm, tierZoo, tierCold, tierWarmTrain} {
		for i := 0; i < counts[t]; i++ {
			out = append(out, t)
		}
	}
	return out
}

// tier is the path the generator intends a request to take.
type tier string

const (
	tierCache     tier = "cache"
	tierWarm      tier = "warm"
	tierZoo       tier = "zoo"
	tierCold      tier = "cold"
	tierWarmTrain tier = "warmtrain"
)

// provenance is what the server must report for a request of the tier.
func (t tier) provenance() string {
	switch t {
	case tierCold:
		return service.ProvenanceTrained
	case tierWarmTrain:
		return service.ProvenanceWarm
	}
	return string(t)
}

// geometry is one scenario-family instance.
type geometry struct {
	family string
	es, sw int
}

func (g geometry) scenario() (*scenarios.Scenario, error) {
	return scenarios.Family(g.family, g.es, g.sw)
}

var (
	// zooGeos are pretrained into the zoo; zoo-tier requests bring fresh
	// flows on them.
	zooGeos = []geometry{{"ring", 4, 4}, {"mesh", 4, 4}, {"dualstar", 4, 4}, {"zonal", 4, 4}}
	// coldGeos are absent from the zoo: cold-tier requests train on them.
	coldGeos = []geometry{{"ring", 4, 3}, {"mesh", 4, 3}, {"dualstar", 4, 3}}
)

func gcnLayers(n int) *int { return &n }

// zooParams are the geometry knobs of the pretrained policies; zoo-tier
// requests use them so the server finds a geometry match.
func zooParams(seed int64) service.PlanParams {
	return service.PlanParams{Epochs: 2, Steps: 48, K: 4, MLPWidth: 16, GCNLayers: gcnLayers(1), Seed: seed}
}

// trainParams are the micro training budget of base, cold and warm
// requests. The MLP width differs from the zoo's, so these geometries
// never match a pretrained policy.
func trainParams(seed int64) service.PlanParams {
	return service.PlanParams{Epochs: 2, Steps: 48, K: 4, MLPWidth: 24, GCNLayers: gcnLayers(1), Seed: seed}
}

// pretrainArgs are the nptsn-pretrain flags that fill the zoo.
func pretrainArgs(zooDir string, seed int64) []string {
	p := zooParams(seed)
	fams := make([]string, len(zooGeos))
	for i, g := range zooGeos {
		fams[i] = g.family
	}
	return []string{"-zoo", zooDir, "-families", strings.Join(fams, ","),
		"-es", strconv.Itoa(zooGeos[0].es), "-sw", strconv.Itoa(zooGeos[0].sw),
		"-flows", strconv.Itoa(zooFlows), "-epochs", strconv.Itoa(p.Epochs),
		"-steps", strconv.Itoa(p.Steps), "-k", strconv.Itoa(p.K),
		"-mlp-width", strconv.Itoa(p.MLPWidth), "-gcn-layers", strconv.Itoa(*p.GCNLayers),
		"-seed", strconv.FormatInt(seed, 10)}
}

// base is a finished plan warm requests derive from.
type base struct {
	geo  geometry
	spec serialize.ProblemJSON
	// held are the candidate links of the base's last end station, left
	// out of its connection graph so the base plan cannot attach it.
	held []serialize.EdgeJSON
	body []byte // the base job's own request
	fp   string // its plan-cache fingerprint, how deltas reference it
}

// request is one generated submission.
type request struct {
	tier tier
	body []byte
	// problem is the self-contained problem the plan must solve (for a
	// delta, the derived one).
	problem serialize.ProblemJSON
}

// problemSpec encodes a family instance with the given flows.
func problemSpec(s *scenarios.Scenario, flows int, flowSeed int64) serialize.ProblemJSON {
	prob := s.Problem(s.RandomFlows(flows, flowSeed), &nbf.StatelessRecovery{}, reliability)
	return serialize.EncodeProblem(prob, "stateless-greedy")
}

// baseFlowSet draws n TT flows among the end stations of a family
// instance except the last one, which only flow-adding deltas bring in.
// Family end stations are vertices 0..es-1.
func baseFlowSet(s *scenarios.Scenario, es, n int, seed int64) tsn.FlowSet {
	rng := rand.New(rand.NewSource(seed))
	fs := make(tsn.FlowSet, 0, n)
	for i := 0; i < n; i++ {
		src := rng.Intn(es - 1)
		dst := (src + 1 + rng.Intn(es-2)) % (es - 1)
		fs = append(fs, newFlow(s, i, src, dst, rng))
	}
	return fs
}

// newFlow is a periodic unicast TT flow with the evaluation's timing, as
// scenarios.RandomFlows makes them.
func newFlow(s *scenarios.Scenario, id, src, dst int, rng *rand.Rand) tsn.Flow {
	return tsn.Flow{ID: id, Name: fmt.Sprintf("%s-tt-%d", s.Name, id), Src: src, Dsts: []int{dst},
		Period: s.Net.BasePeriod, Deadline: s.Net.BasePeriod, FrameSize: 100 + rng.Intn(400)}
}

// makeBases builds the warm bases of a seed: basesPerFamily per zoo
// family, with trainParams so they are planned by training, not by the zoo.
func makeBases(seed int64) ([]base, error) {
	var out []base
	for i := 0; i < basesPerFamily*len(zooGeos); i++ {
		g := zooGeos[i%len(zooGeos)]
		s, err := g.scenario()
		if err != nil {
			return nil, err
		}
		prob := s.Problem(baseFlowSet(s, g.es, baseFlows, seed*131+int64(i)+1), &nbf.StatelessRecovery{}, reliability)
		spec := serialize.EncodeProblem(prob, "stateless-greedy")
		var kept, held []serialize.EdgeJSON
		for _, e := range spec.Connections.Edges {
			if e.U == g.es-1 || e.V == g.es-1 {
				held = append(held, e)
			} else {
				kept = append(kept, e)
			}
		}
		spec.Connections.Edges = kept
		req := service.Request{Problem: spec, Params: trainParams(1), Certify: true}
		fp, err := service.Fingerprint(req)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, base{geo: g, spec: req.Problem, held: held, body: body, fp: fp})
	}
	return out, nil
}

// generator produces one client's request stream. It is a pure function
// of (seed, client): the same seed gives byte-identical bodies.
type generator struct {
	rng    *rand.Rand
	client int
	block  []tier
	queue  []tier // the rest of the current block
	bases  []base
	n      int
	sent   []request // non-cache requests, candidates for re-submission
}

func newGenerator(seed int64, client int, mix bool, bases []base) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), client: client,
		block: replanBlock, bases: bases}
	if mix {
		g.block = mixBlock
	}
	return g
}

// uniqueSeed gives every request its own planning seed, so no two
// generated requests share a plan-cache fingerprint by accident.
func (g *generator) uniqueSeed() int64 { return int64(g.client)*1_000_000 + int64(g.n) + 2 }

func (g *generator) pickTier() tier {
	if len(g.queue) == 0 {
		g.queue = append(g.queue, g.block...)
		g.rng.Shuffle(len(g.queue), func(i, j int) { g.queue[i], g.queue[j] = g.queue[j], g.queue[i] })
	}
	t := g.queue[0]
	g.queue = g.queue[1:]
	return t
}

func (g *generator) next() (request, error) {
	g.n++
	t := g.pickTier()
	var req request
	var err error
	switch t {
	case tierCache:
		// An exact re-submission of an earlier request of this client
		// (finished, since clients are closed-loop) or of a base.
		if k := g.rng.Intn(len(g.sent) + len(g.bases)); k < len(g.sent) {
			req = g.sent[k]
		} else {
			b := g.bases[k-len(g.sent)]
			req = request{body: b.body, problem: b.spec}
		}
		req.tier = tierCache
		return req, nil
	case tierWarm:
		b := g.bases[g.rng.Intn(len(g.bases))]
		drop := g.rng.Perm(len(b.spec.Flows))[:1+g.rng.Intn(2)]
		ids := make([]int, len(drop))
		for i, d := range drop {
			ids[i] = b.spec.Flows[d].ID
		}
		req, err = g.delta(t, b, serialize.DeltaJSON{RemoveFlows: ids})
	case tierWarmTrain:
		// A new end station is wired in and sends a flow: its links join
		// the connection graph, so the base plan cannot carry it and the
		// warm-started job trains.
		b := g.bases[g.rng.Intn(len(g.bases))]
		s, serr := b.geo.scenario()
		if serr != nil {
			return request{}, serr
		}
		f := newFlow(s, maxFlowID(b.spec)+1, b.geo.es-1, g.rng.Intn(b.geo.es-1), g.rng)
		req, err = g.delta(t, b, serialize.DeltaJSON{
			AddFlows:     serialize.EncodeFlows(tsn.FlowSet{f}),
			RestoreLinks: b.held,
		})
	case tierZoo:
		req, err = g.fresh(t, zooGeos[g.rng.Intn(len(zooGeos))], zooFlows, zooParams(g.uniqueSeed()))
	case tierCold:
		req, err = g.fresh(t, coldGeos[g.rng.Intn(len(coldGeos))], zooFlows, trainParams(g.uniqueSeed()))
	}
	if err != nil {
		return request{}, err
	}
	g.sent = append(g.sent, req)
	return req, nil
}

func maxFlowID(p serialize.ProblemJSON) int {
	m := 0
	for _, f := range p.Flows {
		if f.ID > m {
			m = f.ID
		}
	}
	return m
}

// delta builds a request deriving from base b.
func (g *generator) delta(t tier, b base, d serialize.DeltaJSON) (request, error) {
	derived, err := serialize.ApplyDelta(b.spec, d)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(service.Request{Base: b.fp, Delta: &d, Params: trainParams(g.uniqueSeed()), Certify: true})
	if err != nil {
		return request{}, err
	}
	return request{tier: t, body: body, problem: derived}, nil
}

// fresh builds a from-scratch request on geometry geo.
func (g *generator) fresh(t tier, geo geometry, flows int, p service.PlanParams) (request, error) {
	s, err := geo.scenario()
	if err != nil {
		return request{}, err
	}
	spec := problemSpec(s, flows, g.rng.Int63()+1)
	body, err := json.Marshal(service.Request{Problem: spec, Params: p, Certify: true})
	if err != nil {
		return request{}, err
	}
	return request{tier: t, body: body, problem: spec}, nil
}

// server is a running nptsn-serve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	events string
	done   chan struct{}
}

// startServer boots nptsn-serve over the zoo with its address file, log
// and event log in dir, and waits until it listens.
func startServer(o options, dir, zooDir string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	s := &server{events: filepath.Join(dir, "events.jsonl"), done: make(chan struct{})}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(filepath.Join(o.buildDir(), "bin", "nptsn-serve"),
		"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "1",
		"-zoo", zooDir, "-events", s.events)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // a non-zero exit after SIGTERM changes nothing here
		logf.Close()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			s.url = "http://" + strings.TrimSpace(string(b))
			return s, nil
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("nptsn-serve exited during start-up (see %s)", filepath.Join(dir, "server.log"))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("nptsn-serve did not publish its address")
		}
	}
}

// stop sends SIGTERM and waits for the process to end, killing it after a
// grace period.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// jobRecord is one request's outcome as the client saw it.
type jobRecord struct {
	req       request
	index     int // position in the client's stream
	client    int
	err       error
	t0, t1    time.Time
	submitEnd time.Time // the submit response is read and decoded
	doneSeen  time.Time // the terminal status is read and decoded
	resStart  time.Time
	submit    time.Duration
	status    time.Duration // summed over polls
	result    time.Duration
	polls     int
	st        service.Status
	resBody   []byte
}

func (j *jobRecord) latency() time.Duration { return j.t1.Sub(j.t0) }

// client drives one closed loop against the server.
type client struct {
	http *http.Client
	url  string
}

func (c *client) do(ctx context.Context, req request) *jobRecord {
	rec := &jobRecord{req: req, t0: time.Now()}
	rec.err = c.run(ctx, rec)
	rec.t1 = time.Now()
	return rec
}

func (c *client) run(ctx context.Context, rec *jobRecord) error {
	code, body, err := c.call(ctx, http.MethodPost, "/v1/jobs", rec.req.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rec.st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.submitEnd = time.Now()
	rec.submit = rec.submitEnd.Sub(rec.t0)
	rec.doneSeen = rec.submitEnd
	for !rec.st.State.Terminal() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
		start := time.Now()
		code, body, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+rec.st.ID, nil)
		rec.status += time.Since(start)
		rec.polls++
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status: HTTP %d", code)
		}
		rec.st = service.Status{}
		if err := json.Unmarshal(body, &rec.st); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		rec.doneSeen = time.Now()
	}
	if rec.st.State != service.StateDone {
		return fmt.Errorf("job ended %s: %s", rec.st.State, rec.st.Error)
	}
	rec.resStart = time.Now()
	code, body, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+rec.st.ID+"/result", nil)
	rec.result = time.Since(rec.resStart)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("result: HTTP %d", code)
	}
	rec.resBody = body
	return nil
}

func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveEnv is one set-up: a filled zoo, a booted server and planned bases.
type serveEnv struct {
	srv   *server
	bases []base
	cl    *client
}

// serveSetup pretrains the zoo, boots the server and plans the warm
// bases through it.
func serveSetup(ctx context.Context, o options, dir string) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	zooDir := filepath.Join(dir, "zoo")
	pre := exec.CommandContext(ctx, filepath.Join(o.buildDir(), "bin", "nptsn-pretrain"), pretrainArgs(zooDir, zooSeed)...)
	out, err := pre.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("nptsn-pretrain: %v: %s", err, out)
	}
	added := 0
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "added ") {
			added++
		}
	}
	if added != len(zooGeos) {
		return nil, fmt.Errorf("nptsn-pretrain added %d of %d policies: %s", added, len(zooGeos), out)
	}
	bases, err := makeBases(o.seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(o, dir, zooDir)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv, bases: bases, cl: &client{
		url:  srv.url,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}}
	for _, b := range bases {
		rec := env.cl.do(ctx, request{tier: "base", body: b.body, problem: b.spec})
		if err := checkRecord(rec, service.ProvenanceTrained); err != nil {
			env.close()
			return nil, fmt.Errorf("planning a warm base: %w", err)
		}
	}
	return env, nil
}

func (e *serveEnv) close() {
	e.cl.http.CloseIdleConnections()
	e.srv.stop()
}

// measurement is what one measured window produced.
type measurement struct {
	recs []*jobRecord
	wall time.Duration
	// rssMB is the server's peak RSS when the rssJobs-th job finished.
	rssMB float64
}

// measure runs the closed-loop clients until the budget is used up and
// every client has run costJobs requests and rssJobs jobs have finished.
func (e *serveEnv) measure(ctx context.Context, o options, mix bool) (measurement, error) {
	var mu sync.Mutex
	var m measurement
	var firstErr error
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	more := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr == nil && (time.Now().Before(deadline) || i < costJobs || len(m.recs) < rssJobs)
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		gen := newGenerator(o.seed, c, mix, e.bases)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; more(i) && ctx.Err() == nil; i++ {
				req, err := gen.next()
				if err == nil {
					rec := e.cl.do(ctx, req)
					rec.index, rec.client = i, c
					mu.Lock()
					m.recs = append(m.recs, rec)
					if len(m.recs) == rssJobs {
						m.rssMB, err = e.srv.peakRSSMB()
					}
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m.wall = time.Since(start)
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return m, firstErr
}

// peakRSSMB reads the server's peak resident set so far (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// checkRecord is the correctness gate for one served plan: the job
// finished with the intended provenance, and its plan decodes against the
// submitted problem, passes core.VerifySolution and carries a PASS
// certificate.
func checkRecord(rec *jobRecord, wantProv string) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.st.Provenance != wantProv {
		return fmt.Errorf("provenance %q, want %q", rec.st.Provenance, wantProv)
	}
	var res service.Result
	if err := json.Unmarshal(rec.resBody, &res); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if res.Solution == nil {
		return fmt.Errorf("result carries no plan")
	}
	if res.Certificate == nil || !res.Certificate.OK() {
		return fmt.Errorf("no PASS certificate")
	}
	if rec.req.tier == tierWarm && res.Epochs != 0 {
		return fmt.Errorf("remove-only delta trained %d epochs", res.Epochs)
	}
	if rec.req.tier == tierWarmTrain && res.Epochs == 0 {
		return fmt.Errorf("flow-adding delta answered without training")
	}
	prob, err := serialize.DecodeProblem(rec.req.problem, nbf.NewRegistry())
	if err != nil {
		return fmt.Errorf("decode problem: %w", err)
	}
	sol, err := serialize.DecodeSolution(*res.Solution, prob.Connections)
	if err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	if err := core.VerifySolution(prob, sol); err != nil {
		return err
	}
	if sol.Cost != res.Cost {
		return fmt.Errorf("plan cost %v, result says %v", sol.Cost, res.Cost)
	}
	return nil
}

// runServe is the serve-replan (mix=false) and serve-mix workload.
func runServe(ctx context.Context, o options, h *header, r *result, mix bool) error {
	h.Clients = serveClients
	h.Workers = 1
	if o.trace {
		return traceServe(ctx, o, h, r, mix)
	}
	var setups []float64
	var env *serveEnv
	dir := filepath.Join(o.buildDir(), fmt.Sprintf("%s-%d", o.workload, o.seed))
	defer os.RemoveAll(dir)
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		env, err = serveSetup(ctx, o, dir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m, err := env.measure(ctx, o, mix)
	env.close()
	if err != nil {
		return err
	}
	jobs := len(gate(m.recs, r))
	h.JobsByTier = jobsByTier(m.recs)
	var lat []float64
	for _, rec := range m.recs {
		lat = append(lat, ms(rec.latency()))
	}
	r.set("setup_s", median(setups), "s")
	r.set("op_p50_ms", median(lat), "ms")
	r.set("ops_per_s", float64(jobs)/m.wall.Seconds(), "1/s")
	r.set("peak_rss_mb", m.rssMB, "MB")
	return nil
}

// gate runs checkRecord on every record, counts attempts and failures,
// and returns the records of the jobs served correctly.
func gate(recs []*jobRecord, r *result) []*jobRecord {
	var ok []*jobRecord
	for _, rec := range recs {
		r.Attempted++
		if err := checkRecord(rec, rec.req.tier.provenance()); err != nil {
			r.fail("client %d job %d (%s): %v", rec.client, rec.index, rec.req.tier, err)
			continue
		}
		ok = append(ok, rec)
	}
	return ok
}

// streamCost is the mean plan cost over the first costJobs requests of
// each client's stream.
func streamCost(recs []*jobRecord, r *result) float64 {
	var costs []float64
	for _, rec := range recs {
		if rec.index >= costJobs || rec.err != nil {
			continue
		}
		var res service.Result
		if err := json.Unmarshal(rec.resBody, &res); err != nil {
			continue
		}
		costs = append(costs, res.Cost)
	}
	if len(costs) != serveClients*costJobs {
		r.fail("plan_cost needs %d leading jobs, %d finished", serveClients*costJobs, len(costs))
	}
	return mean(costs)
}

// traceServe is the traced serve run. The serve spans are rebuilt after
// the measured window from the client's timestamps and the server's status
// fields, certificates and events, so the traced run runs exactly the code
// an untraced one does and its tracing overhead is zero by construction.
func traceServe(ctx context.Context, o options, h *header, r *result, mix bool) error {
	dir := filepath.Join(o.buildDir(), fmt.Sprintf("%s-%d", o.workload, o.seed))
	defer os.RemoveAll(dir)
	env, err := serveSetup(ctx, o, dir)
	if err != nil {
		return err
	}
	before, err := scrape(ctx, env.cl)
	if err != nil {
		env.close()
		return err
	}
	m, err := env.measure(ctx, o, mix)
	if err != nil {
		env.close()
		return err
	}
	after, err := scrape(ctx, env.cl)
	env.close()
	if err != nil {
		return err
	}
	events, err := readEvents(env.srv.events)
	if err != nil {
		return err
	}
	recs := m.recs
	audits, err := replayAudits(ctx, gate(recs, r), r)
	if err != nil {
		return err
	}
	h.JobsByTier = jobsByTier(recs)

	zooEv := map[string]map[string]float64{}
	for _, e := range events {
		if e["type"] == service.EventZooHit {
			id, _, _ := strings.Cut(fmt.Sprint(e["msg"]), " ")
			v := map[string]float64{}
			if m, ok := e["v"].(map[string]interface{}); ok {
				for k, x := range m {
					if f, ok := x.(float64); ok {
						v[k] = f
					}
				}
			}
			zooEv[id] = v
		}
	}
	tr := newTracer()
	for i, rec := range recs {
		traceJob(tr, i+1, rec, zooEv[rec.st.ID], audits[rec])
	}
	spans := tr.snapshot()
	if err := tr.write(filepath.Join(o.buildDir(), fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
		return err
	}
	// A job of half a millisecond misses a tenth of its wall when the OS
	// takes the client's CPU for 50 µs between two of its spans, so the
	// gate is on the 99th percentile of the jobs' gaps.
	gaps, err := reconcile(spans, "job")
	if err != nil {
		return err
	}
	gap, err := percentile(gaps, 99)
	if err != nil {
		r.fail("reconciliation: %v", err)
	} else if gap > maxGap {
		r.fail("reconciliation: 1%% of jobs miss their wall by more than %.3f", gap)
	}
	servePerLayer(r, recs, m.wall, delta(before, after), zooEv, audits)
	r.set("trace.reconcile_gap", gap, "ratio")
	r.set("trace.overhead_ms", 0, "ms")
	r.set("quality.plan_cost", streamCost(recs, r), "cost")
	return nil
}

// jobsByTier counts the finished jobs of each tier.
func jobsByTier(recs []*jobRecord) map[string]int {
	out := map[string]int{}
	for _, rec := range recs {
		if rec.err == nil {
			out[string(rec.req.tier)]++
		}
	}
	return out
}

// certifySamples is the service's default audit size; the generated
// requests leave it unset.
const certifySamples = 256

// replayAudits re-runs, in this process, the certification audit of every
// correctly served non-cache job — on the job's problem and served plan,
// with the options the service audits with — and returns each audit's wall
// time. The certificate states its audit time in whole milliseconds only,
// too coarse for audits that take a fraction of one. A re-audit must
// reproduce the certificate's verdict and NBF calls; otherwise the job's
// certificate is wrong, or the timed audit is not the server's.
func replayAudits(ctx context.Context, recs []*jobRecord, r *result) (map[*jobRecord]time.Duration, error) {
	out := map[*jobRecord]time.Duration{}
	for _, rec := range recs {
		if rec.req.tier == tierCache {
			continue
		}
		// The gate decoded all of these without error.
		var req service.Request
		var res service.Result
		if err := json.Unmarshal(rec.req.body, &req); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(rec.resBody, &res); err != nil {
			return nil, err
		}
		prob, err := serialize.DecodeProblem(rec.req.problem, nbf.NewRegistry())
		if err != nil {
			return nil, err
		}
		sol, err := serialize.DecodeSolution(*res.Solution, prob.Connections)
		if err != nil {
			return nil, err
		}
		c := &certify.Certifier{Prob: prob, Sol: sol,
			Opt: certify.Options{Samples: certifySamples, Seed: req.Params.Seed, AnalyzerWorkers: 1}}
		start := time.Now()
		cert, err := c.Certify(ctx)
		took := time.Since(start)
		if err != nil {
			return nil, err
		}
		if !cert.OK() || cert.NBFCalls != res.Certificate.NBFCalls {
			r.fail("client %d job %d (%s): re-audit %s with %d NBF calls, certificate %s with %d",
				rec.client, rec.index, rec.req.tier, cert.Verdict, cert.NBFCalls,
				res.Certificate.Verdict, res.Certificate.NBFCalls)
			continue
		}
		out[rec] = took
	}
	return out, nil
}

// traceJob records one job's spans from the client's timestamps, the
// server's status and the job's re-audit time. Server times before the
// submit call returned are clipped to its return, so that stretch is
// counted once, as http.submit. service.notify runs from the server
// finishing the job to the client having read the terminal status; nothing
// fills the rest of the job's wall, so time the spans miss shows in the
// reconciliation.
func traceJob(tr *tracer, g int, rec *jobRecord, zooEv map[string]float64, audit time.Duration) {
	if rec.err != nil {
		return
	}
	root := tr.add("job", rec.t0, rec.t1, 0, g)
	tr.add("http.submit", rec.t0, rec.submitEnd, root, g)
	tr.add("http.result", rec.resStart, rec.t1, root, g)
	if rec.st.StartedAt == nil || rec.st.FinishedAt == nil {
		return // answered from the cache on submit
	}
	clip := func(t time.Time) time.Time {
		if t.Before(rec.submitEnd) {
			return rec.submitEnd
		}
		return t
	}
	started, finished := clip(*rec.st.StartedAt), clip(*rec.st.FinishedAt)
	tr.add("service.queue", rec.submitEnd, started, root, g)
	run := tr.add("service.run", started, finished, root, g)
	tr.add("service.notify", finished, rec.doneSeen, root, g)
	if audit == 0 {
		return
	}
	parent, end := run, finished
	if zooEv != nil {
		zs := started
		ze := zs.Add(time.Duration(zooEv["seconds"] * float64(time.Second)))
		if ze.After(finished) {
			ze = finished
		}
		parent = tr.add("zoo.rollout", zs, ze, run, g)
		end = ze
	}
	cs := end.Add(-audit)
	if cs.Before(started) {
		cs = started
	}
	tr.add("certify.audit", cs, end, parent, g)
}

// servePerLayer fills the per-layer metrics of a traced serve run.
func servePerLayer(r *result, recs []*jobRecord, wall time.Duration, met map[string]float64, zooEv map[string]map[string]float64, audits map[*jobRecord]time.Duration) {
	byTier := map[tier][]float64{}
	var queue, submit, status, resd, polls, roll []float64
	runBy := map[tier][]float64{}
	var training time.Duration
	var audit, nbfCalls, scen []float64
	var decodeUs, encodeUs []float64
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		l := ms(rec.latency())
		byTier[rec.req.tier] = append(byTier[rec.req.tier], l)
		submit = append(submit, ms(rec.submit))
		resd = append(resd, ms(rec.result))
		polls = append(polls, float64(rec.polls))
		if rec.polls > 0 {
			status = append(status, ms(rec.status)/float64(rec.polls))
		}
		if rec.st.StartedAt != nil && rec.st.FinishedAt != nil {
			queue = append(queue, ms(rec.st.StartedAt.Sub(rec.st.SubmittedAt)))
			run := rec.st.FinishedAt.Sub(*rec.st.StartedAt)
			runBy[rec.req.tier] = append(runBy[rec.req.tier], ms(run))
			if rec.req.tier == tierCold || rec.req.tier == tierWarmTrain {
				training += run
			}
		}
		var res service.Result
		if json.Unmarshal(rec.resBody, &res) == nil && res.Certificate != nil && rec.req.tier != tierCache {
			nbfCalls = append(nbfCalls, float64(res.Certificate.NBFCalls))
			scen = append(scen, float64(res.Certificate.DistinctScenarios))
		}
		if a, ok := audits[rec]; ok {
			audit = append(audit, ms(a))
			if v, ok := zooEv[rec.st.ID]; ok {
				// The hit's seconds run from the zoo lookup to the end of
				// the audit; the rollout (with its VerifySolution) is the
				// rest.
				roll = append(roll, v["seconds"]*1000-ms(a))
			}
		}
		// The serialize layer, timed on this run's exact bodies.
		var req service.Request
		if json.Unmarshal(rec.req.body, &req) == nil && req.HasInlineProblem() {
			start := time.Now()
			_, err := serialize.DecodeProblem(req.Problem, nbf.NewRegistry())
			if err == nil {
				decodeUs = append(decodeUs, us(time.Since(start)))
			}
		}
		if res.Solution != nil {
			if prob, err := serialize.DecodeProblem(rec.req.problem, nbf.NewRegistry()); err == nil {
				if sol, err := serialize.DecodeSolution(*res.Solution, prob.Connections); err == nil {
					start := time.Now()
					_ = serialize.EncodeSolution(sol)
					encodeUs = append(encodeUs, us(time.Since(start)))
				}
			}
		}
	}
	for _, t := range []tier{tierCache, tierWarm, tierZoo} {
		r.set("tier."+string(t)+"_p50_ms", median(byTier[t]), "ms")
		p90, err := percentile(byTier[t], 90)
		if err != nil {
			r.fail("tier %s: %v", t, err)
		}
		r.set("tier."+string(t)+"_p90_ms", p90, "ms")
	}
	r.set("tier.cold_p50_ms", median(byTier[tierCold]), "ms")
	r.set("tier.warmtrain_p50_ms", median(byTier[tierWarmTrain]), "ms")
	r.set("http.submit_ms", mean(submit), "ms")
	r.set("http.status_ms", mean(status), "ms")
	r.set("http.result_ms", mean(resd), "ms")
	r.set("service.polls", mean(polls), "count")
	r.set("service.queue_wait_ms", median(queue), "ms")
	// Two closed-loop clients let a training job hold up at most one fast
	// job of the other client, so queueing shows in the far tail.
	q99, err := percentile(queue, 99)
	if err != nil {
		r.fail("queue wait: %v", err)
	}
	r.set("service.queue_wait_p99_ms", q99, "ms")
	r.set("service.run_warm_ms", median(runBy[tierWarm]), "ms")
	r.set("service.run_zoo_ms", median(runBy[tierZoo]), "ms")
	r.set("service.run_cold_ms", median(runBy[tierCold]), "ms")
	r.set("service.train_share", training.Seconds()/wall.Seconds(), "ratio")
	var steps []float64
	for _, v := range zooEv {
		steps = append(steps, v["env_steps"])
	}
	r.set("zoo.rollout_ms", median(roll), "ms")
	r.set("zoo.env_steps", mean(steps), "count")
	hits := met["nptsn_zoo_hits_total"]
	r.set("zoo.hit_ratio", hits/nonzero(hits+met["nptsn_zoo_misses_total"]+met["nptsn_zoo_rejects_total"]), "ratio")
	r.set("certify.audit_ms", median(audit), "ms")
	r.set("certify.nbf_calls", mean(nbfCalls), "count")
	r.set("certify.scenarios", mean(scen), "count")
	r.set("core.train_epoch_s", met["nptsn_epoch_duration_seconds_sum"]/nonzero(met["nptsn_epoch_duration_seconds_count"]), "s")
	hitsA := met["nptsn_analysis_cache_hits_total"]
	r.set("failure.cache_hit_ratio", hitsA/nonzero(hitsA+met["nptsn_analysis_cache_misses_total"]), "ratio")
	r.set("serialize.decode_problem_us", median(decodeUs), "us")
	r.set("serialize.encode_solution_us", median(encodeUs), "us")
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

// scrape reads the server's /metrics as name → value (histogram buckets
// skipped).
func scrape(ctx context.Context, c *client) (map[string]float64, error) {
	code, body, err := c.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// readEvents parses the server's JSON-lines event log.
func readEvents(path string) ([]map[string]interface{}, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []map[string]interface{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e map[string]interface{}
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("event log: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}
