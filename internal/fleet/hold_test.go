package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// statusGetCounter counts the coordinator's job status reads from its
// replicas (GET /v1/jobs/{id}) and passes every round trip through.
type statusGetCounter struct{ n atomic.Int32 }

func (s *statusGetCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := strings.CutPrefix(req.URL.Path, "/v1/jobs/")
	if req.Method == http.MethodGet && ok && !strings.Contains(id, "/") {
		s.n.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestSubmitHoldAnswersFastJobInOneCall: a job that finishes within the
// replica's POST hold is answered 200 done by the coordinator's own POST,
// and reading its fleet status afterwards asks the replica nothing. The
// job is a warm re-plan that drops one flow of a finished base, so it
// runs no training epoch.
func TestSubmitHoldAnswersFastJobInOneCall(t *testing.T) {
	gets := &statusGetCounter{}
	opt := chaosOptions(nil, gets)
	// Heartbeats slow enough that the monitor never sweeps: no background
	// refresh reads a status.
	opt.HeartbeatInterval = time.Hour
	c := New(opt)
	defer c.Close()
	startTestReplica(t, c, "r0", service.Options{})
	srv := httptest.NewServer(NewMux(c, nil))
	defer srv.Close()

	base, err := c.Submit(context.Background(), tinyRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFleetState(t, c, base.ID, service.StateDone)
	gets.n.Store(0)

	body := fmt.Sprintf(`{"base": %q, "delta": {"removeFlows": [2]}}`, base.ID)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != service.StateDone || st.CacheHit {
		t.Fatalf("fleet submit = %d %s (cache hit %v), want 200 done by a run: %+v", resp.StatusCode, st.State, st.CacheHit, st)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateDone {
		t.Fatalf("fleet status = %s, want done", got.State)
	}
	if n := gets.n.Load(); n != 0 {
		t.Fatalf("the coordinator read the replica's job status %d times, want 0", n)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet result = %d: %s", resp.StatusCode, res)
	}
}
