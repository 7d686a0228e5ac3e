package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRefreshDoesNotRegressFinishedJob pins the race between two
// concurrent refreshes of one job (a client's Get and the monitor's sweep):
// a slow read that saw the job running lands after a fast read that saw
// it done. The finished job must stay done.
func TestRefreshDoesNotRegressFinishedJob(t *testing.T) {
	const remote = "0123456789abcdef"
	firstArrived := make(chan struct{})
	release := make(chan struct{})
	var gets atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body any
		switch r.URL.Path {
		case "/v1/jobs/" + remote:
			st := service.Status{ID: remote, State: service.StateDone}
			if gets.Add(1) == 1 {
				// The slow read: it saw the job still running.
				close(firstArrived)
				<-release
				st.State = service.StateRunning
			}
			body = st
		case "/v1/jobs/" + remote + "/result":
			body = service.Result{JobID: remote, GuaranteeMet: true}
		default:
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(body)
	}))
	defer srv.Close()

	opt := chaosOptions(nil, nil)
	// Heartbeats slow enough that the monitor never sweeps: the test drives
	// both refreshes itself.
	opt.HeartbeatInterval = time.Hour
	c := New(opt)
	defer c.Close()
	c.Register("r0", srv.URL)
	j := &fleetJob{
		id:        "fedcba9876543210",
		submitted: time.Now().UTC(),
		replicaID: "r0",
		remoteID:  remote,
		last:      service.Status{ID: remote, State: service.StateRunning},
	}

	ctx := context.Background()
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		c.refresh(ctx, j)
	}()
	<-firstArrived
	c.refresh(ctx, j)
	if got := j.view().State; got != service.StateDone {
		t.Fatalf("fast refresh read %s, want done", got)
	}
	close(release)
	<-slow

	if got := j.view().State; got != service.StateDone {
		t.Fatalf("finished job regressed to %s after a stale read landed", got)
	}
}
