package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obsv"
	"repro/internal/service"
)

// NewMux builds the coordinator's HTTP API. The /v1/jobs surface is the
// same contract a single nptsn-serve replica exposes — clients point at
// the coordinator instead of a replica and nothing else changes — plus
// the fleet control plane:
//
//	POST   /v1/jobs                          submit (routed to the home shard)
//	GET    /v1/jobs                          list fleet jobs
//	GET    /v1/jobs/{id}                     status (refreshed from the replica)
//	GET    /v1/jobs/{id}/result              finished plan (cached or proxied)
//	DELETE /v1/jobs/{id}                     cancel
//	GET    /v1/fleet                         replica health + routing counters
//	POST   /v1/fleet/replicas                register {id,url} → heartbeat pace
//	POST   /v1/fleet/replicas/{id}/heartbeat one beat (404 → re-register)
//	DELETE /v1/fleet/replicas/{id}           graceful deregistration
//	GET    /metrics, /healthz                when reg is non-nil
func NewMux(c *Coordinator, reg *obsv.Registry) *http.ServeMux {
	api := &apiServer{c: c}
	mux := http.NewServeMux()
	wrap := func(route string, h http.HandlerFunc) http.Handler {
		return obsv.WithRequestLog(reg, route, h)
	}
	mux.Handle("POST /v1/jobs", wrap("/v1/jobs", api.submit))
	mux.Handle("GET /v1/jobs", wrap("/v1/jobs", api.list))
	mux.Handle("GET /v1/jobs/{id}", wrap("/v1/jobs/{id}", api.get))
	mux.Handle("GET /v1/jobs/{id}/result", wrap("/v1/jobs/{id}/result", api.result))
	mux.Handle("DELETE /v1/jobs/{id}", wrap("/v1/jobs/{id}", api.cancel))
	mux.Handle("GET /v1/fleet", wrap("/v1/fleet", api.fleet))
	mux.Handle("POST /v1/fleet/replicas", wrap("/v1/fleet/replicas", api.register))
	mux.Handle("POST /v1/fleet/replicas/{id}/heartbeat", wrap("/v1/fleet/replicas/{id}/heartbeat", api.heartbeat))
	mux.Handle("DELETE /v1/fleet/replicas/{id}", wrap("/v1/fleet/replicas/{id}", api.deregister))
	if reg != nil {
		mux.Handle("GET /metrics", obsv.WithRequestLog(reg, "/metrics", obsv.MetricsHandler(reg)))
		mux.Handle("GET /healthz", obsv.WithRequestLog(reg, "/healthz", obsv.HealthHandler()))
	}
	return mux
}

type apiServer struct {
	c *Coordinator
}

// writeFleetErr maps coordinator errors onto the wire. Replica rejections
// travel through verbatim (an APIError keeps its status code, so a 429
// or 422 from the home shard reads the same through the coordinator);
// replica unreachability that exhausted the ring is a gateway problem.
func writeFleetErr(w http.ResponseWriter, err error) {
	var ae *service.APIError
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, ErrNoReplicas):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &ae):
		writeError(w, ae.StatusCode, ae.Message)
	default:
		writeError(w, http.StatusBadGateway, err.Error())
	}
}

func (a *apiServer) submit(w http.ResponseWriter, r *http.Request) {
	req, err := service.ReadRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := a.c.Submit(r.Context(), req)
	switch {
	case err != nil:
		writeFleetErr(w, err)
	case st.State.Terminal():
		// Answered, as a replica answers: by fleet dedup, adoption of a
		// finished job, or a replica's plan cache or POST hold.
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (a *apiServer) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.c.List())
}

func (a *apiServer) get(w http.ResponseWriter, r *http.Request) {
	st, err := a.c.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		writeFleetErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *apiServer) result(w http.ResponseWriter, r *http.Request) {
	res, err := a.c.Result(r.Context(), r.PathValue("id"))
	if err != nil {
		writeFleetErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (a *apiServer) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := a.c.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		writeFleetErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (a *apiServer) fleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.c.Fleet())
}

// registration is the POST /v1/fleet/replicas body.
type registration struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// registered is its response: the pace the replica should heartbeat at.
type registered struct {
	HeartbeatIntervalSec float64 `json:"heartbeatIntervalSec"`
}

func (a *apiServer) register(w http.ResponseWriter, r *http.Request) {
	var reg registration
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("request body: %v", err))
		return
	}
	if reg.ID == "" || reg.URL == "" {
		writeError(w, http.StatusBadRequest, "registration needs both id and url")
		return
	}
	interval := a.c.Register(reg.ID, reg.URL)
	writeJSON(w, http.StatusOK, registered{HeartbeatIntervalSec: interval.Seconds()})
}

func (a *apiServer) heartbeat(w http.ResponseWriter, r *http.Request) {
	if err := a.c.Heartbeat(r.PathValue("id")); err != nil {
		// 404 tells the replica the coordinator forgot it (restart); the
		// agent reacts by re-registering.
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *apiServer) deregister(w http.ResponseWriter, r *http.Request) {
	a.c.Deregister(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
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
