package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// pollTerminal polls a job's status through the client every 5 ms until
// it is terminal or ctx ends.
func pollTerminal(ctx context.Context, c *Client, id string) (Status, error) {
	for {
		st, err := c.Get(ctx, id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// dropFirstPost forwards everything to the real API but kills the
// connection of the first POST after the engine has accepted the job —
// the ambiguous-failure shape: the submission landed, the response died.
type dropFirstPost struct {
	mux http.Handler

	mu      sync.Mutex
	dropped bool
}

func (d *dropFirstPost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	drop := r.Method == http.MethodPost && !d.dropped
	if drop {
		d.dropped = true
	}
	d.mu.Unlock()
	if !drop {
		d.mux.ServeHTTP(w, r)
		return
	}
	// Let the engine accept the job, then drop the connection without a
	// byte of response.
	d.mux.ServeHTTP(httptest.NewRecorder(), r)
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	conn.Close()
}

// TestClientSubmitIdempotentAcrossConnectionLoss: the first POST is
// accepted server-side but the response is lost; the client must adopt
// the existing job by fingerprint instead of submitting a duplicate.
func TestClientSubmitIdempotentAcrossConnectionLoss(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	srv := httptest.NewServer(&dropFirstPost{mux: NewMux(m, nil)})
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, tinyRequest(t))
	if err != nil {
		t.Fatalf("submit across a dropped connection: %v", err)
	}
	if st.ID == "" {
		t.Fatal("adopted job has no ID")
	}
	if jobs := m.List(); len(jobs) != 1 {
		t.Fatalf("server holds %d jobs, want 1 — the retry duplicated the submission", len(jobs))
	}
	// The adopted job is fully usable: wait it out and fetch the result.
	final, err := pollTerminal(ctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job = %s (%q), want done", final.State, final.Error)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestClientSubmitDoesNotRepostOnUnreadableJobList: the POST's response is
// torn after the server accepted the job, and so is every read of the job
// list during the first lookup. A list that cannot be read says nothing
// about the job, so the client must look again instead of posting a
// second copy.
func TestClientSubmitDoesNotRepostOnUnreadableJobList(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	srv := httptest.NewServer(NewMux(m, nil))
	defer srv.Close()

	// Round trip 1 is the POST; 2–4 are the first lookup's list read and
	// its clientRetries (2) retries.
	in := fault.New(42, fault.Rule{Point: fault.PointRoundTrip, Kind: fault.KindTorn, Calls: []int{1, 2, 3, 4}, TornBytes: 16})
	t.Log(in.String())
	c := &Client{
		BaseURL: srv.URL,
		HTTP:    &http.Client{Transport: &fault.Transport{In: in}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := tinyRequest(t)
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit through the torn wire: %v", err)
	}
	fp, err := Fingerprint(req)
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, j := range m.List() {
		if j.Fingerprint == fp {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("server holds %d jobs for the fingerprint, want 1 — the client re-posted after an unreadable job list", copies)
	}
	if st.Fingerprint != fp {
		t.Fatalf("adopted job has fingerprint %q, want %q", st.Fingerprint, fp)
	}
	t.Log(in.Stats())
}

// TestClientHonorsRetryAfter: a 429 with Retry-After paces the retry at
// the server-directed delay rather than the client's own backoff.
func TestClientHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var posts []time.Time
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts = append(posts, time.Now())
		n := len(posts)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"0123456789abcdef","state":"queued","submittedAt":"2026-08-08T00:00:00Z","progress":{"epoch":0,"totalEpochs":1,"bestCost":0,"guaranteeMet":false,"reward":0,"solutions":0},"fingerprint":"x"}`))
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	// The client's own backoff (clientBackoff, at most 75ms with jitter) is
	// far below the Retry-After: only honoring the header explains a ≥1s
	// gap between the attempts.
	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "0123456789abcdef" {
		t.Fatalf("status = %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(posts) != 2 {
		t.Fatalf("%d POST attempts, want 2", len(posts))
	}
	if gap := posts[1].Sub(posts[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry came after %v, want ≥ ~1s (Retry-After ignored)", gap)
	}
}

// TestClientDoesNotRetryRejectedRequests: a clean 4xx (bad request,
// poisoned fingerprint) is terminal — one attempt, error surfaced.
func TestClientDoesNotRetryRejectedRequests(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.WriteHeader(http.StatusUnprocessableEntity)
		w.Write([]byte(`{"error":"poisoned"}`))
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	_, err := c.Submit(context.Background(), tinyRequest(t))
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want a 422 APIError", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if attempts != 1 {
		t.Fatalf("%d attempts on a permanent rejection, want 1", attempts)
	}
}

// TestClientInvalidRequestFailsFast: a request the server would reject at
// prepare time never reaches the wire.
func TestClientInvalidRequestFailsFast(t *testing.T) {
	touched := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		touched = true
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	if _, err := c.Submit(context.Background(), Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if touched {
		t.Fatal("invalid request reached the server")
	}
}

// TestClientBackoffAbortsOnCancel: a context cancelled while the client
// sleeps between retries aborts the backoff promptly and surfaces the
// cancellation (errors.Is context.Canceled), not just the retried failure.
func TestClientBackoffAbortsOnCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every attempt bounces with a Retry-After that would park the
		// client for minutes if honored to the letter.
		w.Header().Set("Retry-After", "120")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxBackoff: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let the first attempt land and the sleep begin
		cancel()
	}()
	start := time.Now()
	_, err := c.Submit(ctx, tinyRequest(t))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s to abort the backoff sleep", elapsed)
	}
}

// TestClientClampsAbsurdRetryAfter: a server-directed Retry-After far past
// MaxBackoff paces the retry at the clamp, not the header.
func TestClientClampsAbsurdRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var posts []time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts = append(posts, time.Now())
		n := len(posts)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "86400") // a day
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"0123456789abcdef","state":"queued","submittedAt":"2026-08-08T00:00:00Z","progress":{"epoch":0,"totalEpochs":1,"bestCost":0,"guaranteeMet":false,"reward":0,"solutions":0},"fingerprint":"x"}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxBackoff: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, tinyRequest(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(posts) != 2 {
		t.Fatalf("%d POST attempts, want 2", len(posts))
	}
	if gap := posts[1].Sub(posts[0]); gap > 5*time.Second {
		t.Fatalf("retry waited %v — the absurd Retry-After was trusted verbatim", gap)
	}
}

// TestClientCancel: DELETE through the client cancels a live job and
// returns its status snapshot.
func TestClientCancel(t *testing.T) {
	block := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(block)
		}
	}
	defer release()
	m := newTestManager(t, Options{Workers: 1, testBeforeRun: func(*job) { <-block }})
	srv := httptest.NewServer(NewMux(m, nil))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	release() // let the parked worker observe the cancelled context
	final, err := pollTerminal(ctx, c, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled && final.State != StateFailed {
		t.Fatalf("cancelled job = %s, want cancelled", final.State)
	}
}

// TestClientPoisonedEndToEnd: after three planner panics, the server's 422
// for the poisoned fingerprint travels through the client untouched.
func TestClientPoisonedEndToEnd(t *testing.T) {
	in := fault.New(7, fault.Rule{Point: fault.PointPlan, Kind: fault.KindPanic, Prob: 1})
	m := newTestManager(t, Options{Fault: in})
	srv := httptest.NewServer(NewMux(m, nil))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := tinyRequest(t)
	for i := 0; i < 3; i++ {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i+1, err)
		}
		if final, err := pollTerminal(ctx, c, st.ID); err != nil || final.State != StateFailed {
			t.Fatalf("crashing job %d = %v %v, want failed", i+1, final, err)
		}
	}
	_, err := c.Submit(ctx, req)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmission of a poisoned fingerprint: %v, want 422", err)
	}
}
