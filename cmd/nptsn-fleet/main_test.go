package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// startCoordinator boots run() on an ephemeral port and returns the base
// URL plus a stop function that signals shutdown and waits for exit.
func startCoordinator(t *testing.T, extra ...string) (baseURL string, out *bytes.Buffer, stop func()) {
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
			t.Fatalf("coordinator exited before binding: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop = func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("coordinator exit: %v\n%s", err, out.String())
			}
		case <-time.After(60 * time.Second):
			t.Error("coordinator did not shut down")
		}
	}
	return "http://" + strings.TrimSpace(string(addr)), out, stop
}

// startReplica runs an in-process nptsn-serve equivalent (manager + API
// mux) with a fleet agent heartbeating at the coordinator.
func startReplica(t *testing.T, id, coordinator string) {
	t.Helper()
	m, err := service.New(service.Options{Workers: 1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewMux(m, nil))
	agentCtx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan struct{})
	agent := &fleet.Agent{Coordinator: coordinator, ID: id, AdvertiseURL: srv.URL}
	go func() {
		defer close(agentDone)
		agent.Run(agentCtx)
	}()
	t.Cleanup(func() {
		cancel()
		<-agentDone
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
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

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if v != nil && r.StatusCode < 300 {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("decode %s: %v\n%s", url, err, b)
		}
	}
	return r.StatusCode
}

// TestFleetLifecycle: two replicas register, a job submitted to the
// coordinator lands on its home shard, runs to done, and the result is
// served through the coordinator.
func TestFleetLifecycle(t *testing.T) {
	base, _, stop := startCoordinator(t, "-heartbeat-interval", "50ms")
	defer stop()
	startReplica(t, "r1", base)
	startReplica(t, "r2", base)

	// Both replicas show up alive.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var fs fleet.FleetStatus
		getJSON(t, base+"/v1/fleet", &fs)
		if fs.Alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never registered: %+v", fs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var st fleet.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Replica == "" {
		t.Fatalf("job not attributed to a replica: %s", body)
	}

	deadline = time.Now().Add(120 * time.Second)
	for {
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%s", base, st.ID), &st)
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

	var res service.Result
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result", base, st.ID), &res); code != http.StatusOK {
		t.Fatalf("result = %d", code)
	}
	if res.Solution == nil || res.JobID != st.ID {
		t.Fatalf("result malformed: %+v", res)
	}

	// A duplicate submission dedups at the fleet layer: same job ID back.
	resp2, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	dup, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate = %d, want 200: %s", resp2.StatusCode, dup)
	}
	var st2 fleet.JobStatus
	if err := json.Unmarshal(dup, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("duplicate got job %s, want dedup onto %s", st2.ID, st.ID)
	}
}

func TestFleetFlagHandling(t *testing.T) {
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
	if err := run(context.Background(), []string{"-fault", "http.roundtrip:nonsense"}, &out); err == nil {
		t.Error("malformed -fault schedule accepted")
	}
}

// TestFleetNoReplicas: with nothing registered, submissions bounce 503.
func TestFleetNoReplicas(t *testing.T) {
	base, _, stop := startCoordinator(t)
	defer stop()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(submitBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with empty fleet = %d, want 503: %s", resp.StatusCode, body)
	}
}
