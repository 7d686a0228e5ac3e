package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obsv"
)

// maxRequestBody bounds POST /v1/jobs bodies (problem specs are a few
// hundred KB at ORION scale; 16 MiB leaves generous headroom).
const maxRequestBody = 16 << 20

// submitHold bounds how long POST /v1/jobs waits for its job to turn
// terminal before answering 202. It is over 15× the fast tiers' traced p90
// (5.0 ms warm, 5.4 ms zoo, perfbench serve-replan), so a fast job queued
// behind another still answers on the POST, and 5% of the smallest fleet
// CallTimeout (2 s in the chaos drills, 10 s by default).
const submitHold = 100 * time.Millisecond

// NewMux builds the service's HTTP API on a standard mux:
//
//	POST   /v1/jobs             submit a job (?certify=1 forces the audit): 200 when
//	                            answered (cache hit, or done within submitHold), else 202
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        status + live training progress
//	GET    /v1/jobs/{id}/result finished plan (409 while the job is live)
//	DELETE /v1/jobs/{id}        cancel a live job / delete a terminal one
//	GET    /metrics, /healthz   when reg is non-nil
//
// Every route is wrapped in obsv.WithRequestLog, so per-route request
// counts and latency histograms land on the same registry as the
// nptsn_service_* job metrics.
func NewMux(mgr *Manager, reg *obsv.Registry) *http.ServeMux {
	api := &apiServer{mgr: mgr}
	mux := http.NewServeMux()
	wrap := func(route string, h http.HandlerFunc) http.Handler {
		return obsv.WithRequestLog(reg, route, h)
	}
	mux.Handle("POST /v1/jobs", wrap("/v1/jobs", api.submit))
	mux.Handle("GET /v1/jobs", wrap("/v1/jobs", api.list))
	mux.Handle("GET /v1/jobs/{id}", wrap("/v1/jobs/{id}", api.get))
	mux.Handle("GET /v1/jobs/{id}/result", wrap("/v1/jobs/{id}/result", api.result))
	mux.Handle("DELETE /v1/jobs/{id}", wrap("/v1/jobs/{id}", api.delete))
	if reg != nil {
		mux.Handle("GET /metrics", obsv.WithRequestLog(reg, "/metrics", obsv.MetricsHandler(reg)))
		mux.Handle("GET /healthz", obsv.WithRequestLog(reg, "/healthz", obsv.HealthHandler()))
	}
	return mux
}

type apiServer struct {
	mgr *Manager
}

// ReadRequest reads a POST /v1/jobs request, the one decoder for the
// replica and fleet APIs. The body is bounded by maxRequestBody, unknown
// fields are rejected, so a misspelled parameter fails loudly instead of
// planning with a default, and ?certify=1 forces the audit.
func ReadRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("request body: %w", err)
	}
	if r.URL.Query().Get("certify") == "1" {
		req.Certify = true
	}
	return req, nil
}

func (a *apiServer) submit(w http.ResponseWriter, r *http.Request) {
	req, err := ReadRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := a.mgr.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back. The estimate
		// paces the current backlog by recent run durations; its 1-second
		// floor stands before any run has finished — planning jobs run for
		// seconds to hours, so an earlier retry cannot succeed.
		w.Header().Set("Retry-After", strconv.Itoa(a.mgr.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrPoisoned):
		// The request is well-formed but this exact job has panicked the
		// planner repeatedly; re-running it cannot help.
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	case errors.Is(err, ErrBaseNotFound):
		// A delta request whose base this server does not know and that
		// carries no inline base spec to fall back on.
		writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		// Hold the answer until the job is terminal (a cache hit already
		// is), submitHold runs out or the client leaves.
		if j := a.mgr.lookup(st.ID); j != nil {
			ctx, cancel := context.WithTimeout(r.Context(), submitHold)
			select {
			case <-j.terminal:
			case <-ctx.Done():
			}
			cancel()
			st = j.status()
		}
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	}
}

func (a *apiServer) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.mgr.List())
}

func (a *apiServer) get(w http.ResponseWriter, r *http.Request) {
	st, err := a.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *apiServer) result(w http.ResponseWriter, r *http.Request) {
	res, err := a.mgr.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrNotTerminal):
		writeError(w, http.StatusConflict, err.Error())
	case err != nil:
		// Terminal without a usable result: failed / cancelled.
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (a *apiServer) delete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := a.mgr.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if st.State.Terminal() {
		if err := a.mgr.Delete(id); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
	st, err = a.mgr.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; nothing useful left on error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
