package fleet

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/service"
)

// gatedTransport holds every round trip to one host until open is closed.
type gatedTransport struct {
	host string
	open chan struct{}
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == g.host {
		select {
		case <-g.open:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestHandoffDoesNotRegressFinishedJob pins the race between a handoff and
// a refresh: the job finishes on its old replica, and the coordinator sees
// it done, while the handoff's placement on a survivor is still in
// flight. The finished job must stay done on its old replica — not be
// repointed at the new copy, whose live state no refresh would revisit.
func TestHandoffDoesNotRegressFinishedJob(t *testing.T) {
	gate := &gatedTransport{open: make(chan struct{})}
	opt := chaosOptions(nil, gate)
	// Heartbeats slow enough that the monitor never declares anyone dead:
	// the test drives the handoff itself.
	opt.HeartbeatInterval = time.Hour
	c := New(opt)
	defer c.Close()
	startTestReplica(t, c, "r0", service.Options{})
	survivor := startTestReplica(t, c, "r1", service.Options{})
	u, err := url.Parse(survivor.srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	gate.host = u.Host

	req, _ := requestHomedOn(t, c, "r0")
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replica != "r0" {
		t.Fatalf("job placed on %s, want r0", st.Replica)
	}
	handedOff := make(chan struct{})
	go func() {
		defer close(handedOff)
		c.handoff(ctx, c.lookup(st.ID), "r0")
	}()
	waitFleetState(t, c, st.ID, service.StateDone)
	close(gate.open)
	<-handedOff

	final, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Replica != "r0" || final.Handoffs != 0 {
		t.Fatalf("finished job after a late handoff: state %s on %s with %d handoffs, want done on r0 with 0",
			final.State, final.Replica, final.Handoffs)
	}
}
