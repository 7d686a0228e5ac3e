package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Agent is the replica side of the fleet protocol: it registers an
// nptsn-serve instance with the coordinator and keeps its heartbeat
// alive. It runs inside the replica process (nptsn-serve's -fleet flag)
// so a replica crash silences the heartbeat with it — which is exactly
// the signal the coordinator's suspect/dead machinery listens for.
type Agent struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID is this replica's stable identity on the ring. Reusing an ID
	// across restarts brings the replica's keys home.
	ID string
	// AdvertiseURL is the base URL the coordinator should reach this
	// replica's /v1/jobs API at.
	AdvertiseURL string
	// HTTP is the client for coordinator calls (http.DefaultClient when
	// nil).
	HTTP *http.Client
	// Logf receives agent lifecycle lines (silent when nil).
	Logf func(format string, args ...interface{})

	mu   sync.Mutex
	rng  *rand.Rand
	pace time.Duration
}

const (
	// fallbackPace is the heartbeat pace when the coordinator's
	// registration answer carries none.
	fallbackPace = time.Second
	// beatJitter spreads each beat by ±20% of the pace, so a fleet started
	// in lockstep does not thunder at the coordinator forever.
	beatJitter = 0.2
)

func (a *Agent) logf(format string, args ...interface{}) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) httpClient() *http.Client {
	if a.HTTP != nil {
		return a.HTTP
	}
	return http.DefaultClient
}

// Run registers the replica (retrying until the coordinator answers) and
// heartbeats until ctx is cancelled, re-registering whenever the
// coordinator stops recognizing the ID — the coordinator-restart path.
// On shutdown it deregisters best-effort, so a draining replica's jobs
// fail over immediately instead of after the heartbeat timeout. Run
// returns nil on ctx cancellation; registration and heartbeat failures
// are retried, never returned.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.registerLoop(ctx); err != nil {
		return nil // ctx cancelled before first contact: nothing to undo
	}
	for {
		if !a.sleep(ctx, a.jittered()) {
			a.deregister()
			return nil
		}
		switch err := a.beat(ctx); {
		case err == nil:
		case ctx.Err() != nil:
			a.deregister()
			return nil
		case isUnknownReplica(err):
			a.logf("fleet agent: coordinator forgot %s, re-registering", a.ID)
			if a.registerLoop(ctx) != nil {
				return nil
			}
		default:
			// Transient failure: keep beating. Death is the coordinator's
			// call to make, not ours.
			a.logf("fleet agent: heartbeat: %v", err)
		}
	}
}

// registerLoop retries registration with capped backoff until it lands
// or ctx dies.
func (a *Agent) registerLoop(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		pace, err := a.register(ctx)
		if err == nil {
			a.mu.Lock()
			a.pace = pace
			a.mu.Unlock()
			a.logf("fleet agent: registered %s at %s (heartbeat %v)", a.ID, a.AdvertiseURL, pace)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		a.logf("fleet agent: register: %v (retrying in %v)", err, backoff)
		if !a.sleep(ctx, backoff) {
			return ctx.Err()
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	body, err := json.Marshal(registration{ID: a.ID, URL: a.AdvertiseURL})
	if err != nil {
		return 0, err
	}
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, a.Coordinator+"/v1/fleet/replicas", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("coordinator returned %d", resp.StatusCode)
	}
	var reg registered
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return 0, err
	}
	pace := time.Duration(reg.HeartbeatIntervalSec * float64(time.Second))
	if pace <= 0 {
		pace = fallbackPace
	}
	return pace, nil
}

// errUnknownReplica marks a heartbeat 404: the coordinator does not know
// this replica and the agent must re-register.
type errUnknownReplica struct{}

func (errUnknownReplica) Error() string { return "fleet: coordinator does not know this replica" }

func isUnknownReplica(err error) bool {
	_, ok := err.(errUnknownReplica)
	return ok
}

func (a *Agent) beat(ctx context.Context) error {
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/v1/fleet/replicas/%s/heartbeat", a.Coordinator, a.ID)
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := a.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return nil
	case http.StatusNotFound:
		return errUnknownReplica{}
	default:
		return fmt.Errorf("coordinator returned %d", resp.StatusCode)
	}
}

// deregister tells the coordinator this replica is leaving on purpose.
// Best-effort on its own short deadline: the replica is shutting down and
// must not hang on a dead coordinator.
func (a *Agent) deregister() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/v1/fleet/replicas/%s", a.Coordinator, a.ID)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	if err != nil {
		return
	}
	resp, err := a.httpClient().Do(req)
	if err != nil {
		a.logf("fleet agent: deregister: %v", err)
		return
	}
	drain(resp.Body)
	a.logf("fleet agent: deregistered %s", a.ID)
}

// jittered is the next beat's delay: the coordinator-directed pace spread
// by ±beatJitter. Run registers, which sets the pace, before the first beat.
func (a *Agent) jittered() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rng == nil {
		// Seed from the ID so two replicas never share a jitter stream, and
		// the time so two runs of one replica don't either.
		a.rng = rand.New(rand.NewSource(int64(ringHash(a.ID)) ^ time.Now().UnixNano()))
	}
	spread := 1 + beatJitter*(2*a.rng.Float64()-1)
	return time.Duration(float64(a.pace) * spread)
}

// sleep waits d or until ctx dies; false means ctx died.
func (a *Agent) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func drain(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 1<<20))
	rc.Close()
}
