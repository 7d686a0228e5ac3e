package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is a retrying client for the service's HTTP API (NewMux), safe
// for concurrent use. Transient failures — transport errors, 5xx, 429
// backpressure — are retried with jittered exponential backoff, honoring
// the server's Retry-After pacing. Submissions are idempotent end to end:
// when a POST fails ambiguously (the connection died after the server may
// already have accepted the job), the client re-finds the job by its
// fingerprint instead of resubmitting, so one logical submission never
// plans twice.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Retries is the per-call retry budget beyond the first attempt
	// (default 4).
	Retries int
	// Backoff is the base of the exponential backoff (default 100ms):
	// retry n sleeps Backoff×2ⁿ plus up to 50% jitter.
	Backoff time.Duration
	// MaxBackoff caps every sleep, including server-directed Retry-After
	// pacing (default 30s).
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a server-directed Retry-After header may
	// pace a retry (default MaxBackoff). The server's estimate is advice,
	// not a contract: a buggy or overloaded server advertising an absurd
	// pause must not park the client for it.
	MaxRetryAfter time.Duration
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: server returned %d: %s", e.StatusCode, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 4
}

func (c *Client) backoff() time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return 100 * time.Millisecond
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 30 * time.Second
}

func (c *Client) maxRetryAfter() time.Duration {
	if c.MaxRetryAfter > 0 {
		return c.MaxRetryAfter
	}
	return c.maxBackoff()
}

// delay computes the sleep before retry number attempt (0-based): the
// server's Retry-After when it sent one (clamped to MaxRetryAfter instead
// of trusted verbatim), else jittered exponential backoff; both capped at
// MaxBackoff.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := retryAfter
	if d > 0 {
		if max := c.maxRetryAfter(); d > max {
			d = max
		}
	} else {
		d = c.backoff() << attempt
		d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	}
	if max := c.maxBackoff(); d > max {
		d = max
	}
	return d
}

// sleep waits d or until ctx is cancelled.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit posts one planning request and returns the accepted (or
// cache-hit) job's status. An invalid request fails fast without touching
// the server. On an ambiguous transport failure the job is re-found by
// fingerprint before any resubmission, keeping the submission idempotent
// even when the first response was lost.
func (c *Client) Submit(ctx context.Context, req Request) (Status, error) {
	// The same canonicalization the server runs; it yields the fingerprint
	// the accepted job will carry, which is what makes re-finding possible.
	// A delta request that references a server-side base cannot be
	// fingerprinted locally (only the server holds the base spec); it is
	// posted as-is, skipping the adopt-by-fingerprint rescue.
	fingerprint := ""
	if !req.IsDelta() || req.HasInlineProblem() {
		fp, err := Fingerprint(req)
		if err != nil {
			return Status{}, err
		}
		fingerprint = fp
	}
	body, err := json.Marshal(req)
	if err != nil {
		return Status{}, err
	}
	var lastErr error
	// find is set while a POST may have been accepted without the client
	// hearing of it: until the job list shows the fingerprint absent,
	// posting again could plan the job twice.
	find := false
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		if !find {
			st, ra, ambiguous, err := c.postJob(ctx, body)
			if err == nil {
				return st, nil
			}
			if !retryableSubmit(err) {
				return Status{}, err
			}
			lastErr, retryAfter = err, ra
			find = ambiguous && fingerprint != ""
		}
		if find {
			// Adopt the existing job when the fingerprint resolves. A list
			// that cannot be read says nothing about the job: look again on
			// the next attempt rather than post.
			st, ok, err := c.FindByFingerprint(ctx, fingerprint)
			switch {
			case err != nil:
				lastErr = err
			case ok:
				return st, nil
			default:
				find = false
			}
		}
		if attempt >= c.retries() {
			return Status{}, lastErr
		}
		if serr := c.sleep(ctx, c.delay(attempt, retryAfter)); serr != nil {
			// The caller gave up mid-backoff: surface the cancellation (so
			// errors.Is(err, context.Canceled) holds) alongside the failure
			// that was being retried.
			return Status{}, fmt.Errorf("%w (retrying after: %v)", serr, lastErr)
		}
	}
}

// postJob runs one POST /v1/jobs attempt. ambiguous reports whether the
// server might have accepted the job despite the error.
func (c *Client) postJob(ctx context.Context, body []byte) (st Status, retryAfter time.Duration, ambiguous bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return Status{}, 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// The connection failed somewhere between send and response: the
		// request may or may not have reached the engine.
		return Status{}, 0, true, fmt.Errorf("service: submit: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			// The job was accepted but the status was cut off mid-body.
			return Status{}, 0, true, fmt.Errorf("service: submit response: %w", err)
		}
		return st, 0, false, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// An explicit rejection: nothing was enqueued, safe to resubmit
		// after the server's pacing.
		return Status{}, parseRetryAfter(resp), false, apiError(resp)
	case resp.StatusCode >= 500:
		return Status{}, 0, true, apiError(resp)
	default:
		return Status{}, 0, false, apiError(resp)
	}
}

// retryableSubmit reports whether a submit error is worth another attempt:
// transport failures and everything but a clean 4xx verdict. 503 is the
// drain window — the replacement server may be up by the next attempt.
func retryableSubmit(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return true // transport error
	}
	return ae.StatusCode == http.StatusTooManyRequests ||
		ae.StatusCode == http.StatusServiceUnavailable ||
		ae.StatusCode >= 500
}

// FindByFingerprint lists the server's jobs and returns the newest one
// carrying the fingerprint, if any. Submit uses it to adopt a job whose
// acceptance response was lost; the fleet coordinator uses it to make
// failover hand-offs idempotent — adopting work a replica already owns
// instead of planning it twice. An error means the job list could not be
// read (after the usual GET retries), so whether the server holds such a
// job is unknown — not that it holds none.
func (c *Client) FindByFingerprint(ctx context.Context, fingerprint string) (Status, bool, error) {
	var all []Status
	if err := c.getJSON(ctx, "/v1/jobs", &all); err != nil {
		return Status{}, false, err
	}
	found := false
	var best Status
	for _, st := range all {
		if st.Fingerprint != fingerprint {
			continue
		}
		if !found || st.SubmittedAt.After(best.SubmittedAt) {
			best, found = st, true
		}
	}
	return best, found, nil
}

// Get returns a job's status, retrying transient failures.
func (c *Client) Get(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Result returns a finished job's result, retrying transient failures.
// The server answers 409 while the job is live; Wait first.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	var res Result
	if err := c.getJSON(ctx, "/v1/jobs/"+id+"/result", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel requests cancellation of a live job (DELETE /v1/jobs/{id}) and
// returns the resulting status snapshot. Cancellation is idempotent on the
// server, so transient failures are retried like any GET.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		st, err := c.cancelOnce(ctx, id)
		if err == nil {
			return st, nil
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode < 500 && ae.StatusCode != http.StatusTooManyRequests {
			return Status{}, err
		}
		if attempt >= c.retries() {
			return Status{}, lastErr
		}
		if serr := c.sleep(ctx, c.delay(attempt, 0)); serr != nil {
			return Status{}, fmt.Errorf("%w (retrying after: %v)", serr, lastErr)
		}
	}
}

func (c *Client) cancelOnce(ctx context.Context, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return Status{}, fmt.Errorf("service: cancel %s: %w", id, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return Status{}, fmt.Errorf("service: cancel response: %w", err)
		}
		return st, nil
	case http.StatusNoContent:
		// The job was already terminal and the server deleted its record.
		return Status{ID: id}, nil
	default:
		return Status{}, apiError(resp)
	}
}

// Wait polls a job's status every poll interval (default 500ms) until it
// reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return Status{}, err
		}
	}
}

// getJSON runs a GET with retries (GETs are idempotent, so every failure
// short of a clean 4xx is retried) and decodes the response into out.
func (c *Client) getJSON(ctx context.Context, path string, out interface{}) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.getOnce(ctx, path, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode < 500 && ae.StatusCode != http.StatusTooManyRequests {
			return err
		}
		if attempt >= c.retries() {
			return lastErr
		}
		if serr := c.sleep(ctx, c.delay(attempt, 0)); serr != nil {
			return fmt.Errorf("%w (retrying after: %v)", serr, lastErr)
		}
	}
}

func (c *Client) getOnce(ctx context.Context, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("service: get %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError reads the server's {"error": ...} body into an *APIError.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var msg struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &msg) != nil || msg.Error == "" {
		msg.Error = strings.TrimSpace(string(body))
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg.Error}
}

// parseRetryAfter reads a Retry-After header in seconds (0 when absent or
// unparsable; HTTP-date forms are not produced by this server).
func parseRetryAfter(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
