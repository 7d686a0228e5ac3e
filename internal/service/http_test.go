package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/serialize"
)

// exampleProblemJSON loads the repository's shipped example spec — the
// same file the CLI walkthroughs use.
func exampleProblemJSON(t testing.TB) serialize.ProblemJSON {
	t.Helper()
	f, err := os.Open("../../testdata/example-problem.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var p serialize.ProblemJSON
	if err := serialize.ReadJSON(f, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

type httpFixture struct {
	srv *httptest.Server
	mgr *Manager
	reg *obsv.Registry
}

func newHTTPFixture(t *testing.T, opt Options) *httpFixture {
	t.Helper()
	reg := obsv.NewRegistry()
	opt.Metrics = reg
	mgr := newTestManager(t, opt)
	srv := httptest.NewServer(NewMux(mgr, reg))
	t.Cleanup(srv.Close)
	return &httpFixture{srv: srv, mgr: mgr, reg: reg}
}

func (f *httpFixture) do(t testing.TB, method, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, f.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func (f *httpFixture) getStatus(t testing.TB, id string) Status {
	t.Helper()
	code, _, body := f.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET status = %d: %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status body: %v\n%s", err, body)
	}
	return st
}

// TestHTTPEndToEnd is the ISSUE's acceptance scenario: submit the shipped
// example with ?certify=1, watch queued→running→done with monotone
// progress, fetch a result that matches a direct Planner run with the same
// seed, and observe the duplicate submission hit the plan cache (verified
// through the /metrics exposition).
func TestHTTPEndToEnd(t *testing.T) {
	f := newHTTPFixture(t, Options{})
	req := Request{
		Problem: exampleProblemJSON(t),
		Params: PlanParams{
			Epochs: 2, Steps: 48, K: 4, MLPWidth: 16, Seed: 2,
		},
		CertifySamples: 64,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	code, _, respBody := f.do(t, http.MethodPost, "/v1/jobs?certify=1", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", code, respBody)
	}
	var st Status
	if err := json.Unmarshal(respBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("submitted state = %s, want queued", st.State)
	}
	if !st.Certify {
		t.Fatal("?certify=1 did not arm the audit")
	}

	// Poll until terminal, checking the state machine only moves forward
	// (queued → running → done) and the reported epoch never regresses.
	rank := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
	lastRank, lastEpoch := 0, 0
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur := f.getStatus(t, st.ID)
		r, ok := rank[cur.State]
		if !ok {
			t.Fatalf("job entered state %s (%s)", cur.State, cur.Error)
		}
		if r < lastRank {
			t.Fatalf("state regressed to %s", cur.State)
		}
		if cur.Progress.Epoch < lastEpoch {
			t.Fatalf("progress regressed: epoch %d after %d", cur.Progress.Epoch, lastEpoch)
		}
		lastRank, lastEpoch = r, cur.Progress.Epoch
		if cur.State == StateDone {
			if cur.Progress.Epoch != cur.Progress.TotalEpochs {
				t.Fatalf("done with progress %d/%d", cur.Progress.Epoch, cur.Progress.TotalEpochs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, _, resBody := f.do(t, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, resBody)
	}
	var res Result
	if err := json.Unmarshal(resBody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil || !res.GuaranteeMet {
		t.Fatalf("result lacks a guaranteed plan: %s", resBody)
	}
	if res.Certificate == nil {
		t.Fatal("certified job returned no certificate")
	}

	// Same seed, same configuration, direct in-process run: costs match.
	want := directReport(t, req)
	if want.Best == nil || res.Cost != want.Best.Cost {
		t.Fatalf("service cost %v, direct planner cost %+v", res.Cost, want.Best)
	}

	// The duplicate submission is answered from the plan cache with 200.
	code, _, dupBody := f.do(t, http.MethodPost, "/v1/jobs?certify=1", body)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200: %s", code, dupBody)
	}
	var dup Status
	if err := json.Unmarshal(dupBody, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.CacheHit || dup.State != StateDone {
		t.Fatalf("duplicate not a terminal cache hit: %s", dupBody)
	}

	// …and the hit is visible on the Prometheus exposition.
	code, _, metrics := f.do(t, http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"nptsn_service_cache_hits_total 1",
		"nptsn_service_jobs_done_total 2",
		"nptsn_http_v1_jobs_requests_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}

	// List shows both jobs in submission order.
	code, _, listBody := f.do(t, http.MethodGet, "/v1/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list []Status
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != dup.ID {
		t.Fatalf("list = %s", listBody)
	}
}

func TestHTTPBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	f := newHTTPFixture(t, Options{Workers: 1, QueueSize: 1})
	f.mgr.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}
	defer close(release)

	submit := func(seed int64) (int, http.Header, []byte) {
		req := tinyRequest(t)
		req.Params.Seed = seed
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return f.do(t, http.MethodPost, "/v1/jobs", body)
	}

	if code, _, b := submit(1); code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", code, b)
	}
	<-started
	if code, _, b := submit(2); code != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", code, b)
	}
	code, hdr, b := submit(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429: %s", code, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(string(b), "queue is full") {
		t.Fatalf("429 body: %s", b)
	}
}

func TestHTTPResultConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	f := newHTTPFixture(t, Options{})
	f.mgr.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}

	body, err := json.Marshal(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	code, _, respBody := f.do(t, http.MethodPost, "/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, respBody)
	}
	var st Status
	if err := json.Unmarshal(respBody, &st); err != nil {
		t.Fatal(err)
	}
	<-started
	if code, _, b := f.do(t, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409: %s", code, b)
	}
	close(release)
	waitTerminal(t, f.mgr, st.ID)
}

func TestHTTPDeleteCancelsThenRemoves(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	f := newHTTPFixture(t, Options{})
	f.mgr.testBeforeRun = func(j *job) {
		started <- j.id
		<-release
	}

	body, err := json.Marshal(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	_, _, respBody := f.do(t, http.MethodPost, "/v1/jobs", body)
	var st Status
	if err := json.Unmarshal(respBody, &st); err != nil {
		t.Fatal(err)
	}
	<-started

	// DELETE on a live job is a cancellation request: 202.
	code, _, b := f.do(t, http.MethodDelete, "/v1/jobs/"+st.ID, nil)
	if code != http.StatusAccepted {
		t.Fatalf("delete live = %d, want 202: %s", code, b)
	}
	close(release)
	if final := waitTerminal(t, f.mgr, st.ID); final.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", final.State)
	}

	// DELETE on the now-terminal job removes it: 204, then 404.
	if code, _, b := f.do(t, http.MethodDelete, "/v1/jobs/"+st.ID, nil); code != http.StatusNoContent {
		t.Fatalf("delete terminal = %d, want 204: %s", code, b)
	}
	if code, _, _ := f.do(t, http.MethodGet, "/v1/jobs/"+st.ID, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", code)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	f := newHTTPFixture(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"problem": `},
		{"unknown field", `{"problem": {}, "bogus": 1}`},
		{"empty problem", `{"problem": {}}`},
	}
	for _, tc := range cases {
		code, _, b := f.do(t, http.MethodPost, "/v1/jobs", []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: code = %d, want 400: %s", tc.name, code, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %s", tc.name, b)
		}
	}
	if code, _, _ := f.do(t, http.MethodGet, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatal("unknown job id did not 404")
	}
	if code, _, _ := f.do(t, http.MethodGet, fmt.Sprintf("/v1/jobs/%s/result", "nope"), nil); code != http.StatusNotFound {
		t.Fatal("unknown job result did not 404")
	}
}

// TestHTTPDrainAndRestartReServes covers the restart half of the
// acceptance scenario: a drain during a running job finishes it
// gracefully, and a fresh server over the same data directory re-serves
// the persisted result.
func TestHTTPDrainAndRestartReServes(t *testing.T) {
	dir := t.TempDir()
	reg1 := obsv.NewRegistry()
	m1, err := New(Options{Dir: dir, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewMux(m1, reg1))

	body, err := json.Marshal(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv1.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, respBody)
	}
	var st Status
	if err := json.Unmarshal(respBody, &st); err != nil {
		t.Fatal(err)
	}

	// Drain while the job may still be running: it must finish and persist.
	ctx, cancel := timeoutCtx(30 * time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	srv1.Close()
	if got, _ := m1.Get(st.ID); got.State != StateDone {
		t.Fatalf("job after drain = %s (%s), want done", got.State, got.Error)
	}

	// Second life: same directory, fresh manager and server.
	f := newHTTPFixture(t, Options{Dir: dir})
	got := f.getStatus(t, st.ID)
	if got.State != StateDone {
		t.Fatalf("re-served state = %s, want done", got.State)
	}
	code, _, resBody := f.do(t, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("re-served result = %d: %s", code, resBody)
	}
	var res Result
	if err := json.Unmarshal(resBody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil {
		t.Fatalf("re-served result lost its solution: %s", resBody)
	}
}

func timeoutCtx(d time.Duration) (ctx context.Context, cancel context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// FuzzJobRequest feeds arbitrary bytes through ReadRequest, the POST
// /v1/jobs decoder of both the replica and the fleet API, and the request
// checks Submit runs before it queues anything: base resolution, delta
// derivation, problem decode and validation, planner-config validation and
// fingerprinting. Untrusted bodies of any shape must be rejected with an
// error, never a panic.
func FuzzJobRequest(f *testing.F) {
	full, err := json.Marshal(tinyRequest(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"problem":{},"params":{"epochs":-1}}`))
	f.Add([]byte(`{"base":"0123456789abcdef","delta":{"removeFlows":[0]}}`))
	f.Add([]byte(`{"problem":{"connections":{"vertices":[{"id":0,"kind":"es"}]}},"delta":{},"base":"x"}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs?certify=1", bytes.NewReader(data))
		req, err := ReadRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		if _, err := Fingerprint(req); err != nil {
			return
		}
	})
}
