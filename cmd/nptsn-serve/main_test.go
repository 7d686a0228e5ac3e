package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/service"
)

// startServer boots run() on an ephemeral port and returns the base URL
// plus a stop function that signals shutdown and waits for a clean exit.
func startServer(t *testing.T, extra ...string) (baseURL string, out *bytes.Buffer, stop func()) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	ctx, cancel := context.WithCancel(context.Background())
	out = &bytes.Buffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()

	deadline := time.Now().Add(30 * time.Second)
	var addr []byte
	for {
		var err error
		addr, err = os.ReadFile(addrFile)
		if err == nil && len(addr) > 0 {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before binding: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop = func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("server exit: %v\n%s", err, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Error("server did not shut down")
		}
	}
	return "http://" + strings.TrimSpace(string(addr)), out, stop
}

// submitBody is a small planning request over the shipped example problem.
func submitBody(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/example-problem.json")
	if err != nil {
		t.Fatal(err)
	}
	var prob json.RawMessage = raw
	body, err := json.Marshal(map[string]interface{}{
		"problem": prob,
		"params":  map[string]interface{}{"epochs": 2, "steps": 48, "k": 4, "mlpWidth": 16, "gcnLayers": 1, "seed": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestServeLifecycleAndRestart(t *testing.T) {
	dataDir := t.TempDir()
	eventsPath := filepath.Join(t.TempDir(), "events.jsonl")

	base, _, stop := startServer(t, "-data-dir", dataDir, "-events", eventsPath)

	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st service.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit = %d: %v\n%s", resp.StatusCode, err, body)
	}
	// The POST holds its answer briefly for the job: 200 when the job is
	// terminal by then, 202 while it is live.
	want := http.StatusAccepted
	if st.State.Terminal() {
		want = http.StatusOK
	}
	if resp.StatusCode != want {
		t.Fatalf("submit = %d with state %s, want %d: %s", resp.StatusCode, st.State, want, body)
	}

	// Poll to completion over HTTP.
	deadline := time.Now().Add(120 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("status: %v\n%s", err, b)
		}
		if st.State == service.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The metrics endpoint reports the completed job.
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(metrics), "nptsn_service_jobs_done_total 1") {
		t.Fatalf("metrics missing done counter:\n%s", metrics)
	}

	stop() // graceful SIGTERM-path shutdown

	// Lifecycle events were recorded.
	events, err := obsv.ReadLog(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, e := range events {
		types = append(types, e.Type)
	}
	for _, want := range []string{service.EventSubmitted, service.EventStart, service.EventDone} {
		found := false
		for _, typ := range types {
			found = found || typ == want
		}
		if !found {
			t.Fatalf("event log lacks %q: %v", want, types)
		}
	}

	// Second life over the same data dir: the finished job is re-served.
	base2, _, stop2 := startServer(t, "-data-dir", dataDir)
	defer stop2()
	r2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", base2, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	resBody, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("re-served result = %d: %s", r2.StatusCode, resBody)
	}
	var res service.Result
	if err := json.Unmarshal(resBody, &res); err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil || res.JobID != st.ID {
		t.Fatalf("re-served result malformed: %s", resBody)
	}

	// And a duplicate submission hits the restored plan cache.
	resp2, err := http.Post(base2+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	dupBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate after restart = %d, want 200 (cache hit): %s", resp2.StatusCode, dupBody)
	}
}

func TestServeFlagHandling(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"stray"}, &out); err == nil {
		t.Error("stray positional argument accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, &out); err == nil {
		t.Error("unbindable address accepted")
	}
	if err := run(context.Background(), []string{"-fault", "fs.write:nonsense"}, &out); err == nil {
		t.Error("malformed -fault schedule accepted")
	} else if !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("fault-spec error %q does not name the bad token", err)
	}
}

// TestServeFaultFlagEchoesSchedule: a valid -fault spec boots, announces
// the seeded schedule (the repro line for chaos drills), and still serves.
func TestServeFaultFlagEchoesSchedule(t *testing.T) {
	base, out, stop := startServer(t, "-fault", "fs.write:error:p=0", "-fault-seed", "99")
	r, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", r.StatusCode)
	}
	// Only read the boot output once the server goroutine has exited —
	// bytes.Buffer is not safe for concurrent read/write.
	stop()
	if !strings.Contains(out.String(), "seed=99") {
		t.Fatalf("boot output lacks the fault seed line:\n%s", out.String())
	}
}
