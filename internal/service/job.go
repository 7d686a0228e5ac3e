// Package service is the planning-as-a-service layer of the NPTSN
// reproduction: a job engine that accepts planning problems (the JSON
// specs the CLIs already exchange), executes them on a bounded in-process
// worker pool of independent Planners, and serves status, progress and
// results over an HTTP JSON API (see NewMux and cmd/nptsn-serve).
//
// The engine provides submit/get/list/cancel semantics with per-job states
// (queued → running → done/failed/cancelled), backpressure when the
// waiting queue is full, per-job deadlines wired into Planner.PlanContext,
// a problem-fingerprint plan cache so identical re-submissions return the
// finished plan instantly, atomic JSON persistence of completed jobs so a
// restarted server re-serves them, graceful drain on shutdown, and full
// observability (nptsn_service_* metrics plus JSON-lines lifecycle
// events).
package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/nbf"
	"repro/internal/serialize"
)

// State is a job's lifecycle state.
type State string

// The five job states. Queued and Running are live; the rest are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Provenance values: where a job's plan came from. Result.Provenance
// records how the plan was COMPUTED (zoo, warm, trained) and is preserved
// verbatim when the plan cache re-serves it; Status.Provenance addition-
// ally reports "cache" for jobs answered from the cache without running.
const (
	// ProvenanceZoo marks a plan produced by an inference-only greedy
	// rollout of a pretrained zoo policy — zero training epochs, accepted
	// by the certifier.
	ProvenanceZoo = "zoo"
	// ProvenanceWarm marks a plan trained warm-started from a base plan.
	ProvenanceWarm = "warm"
	// ProvenanceCache marks a job answered from the plan cache; the
	// attached Result keeps the original computation's provenance.
	ProvenanceCache = "cache"
	// ProvenanceTrained marks a plan trained from scratch.
	ProvenanceTrained = "trained"
)

// PlanParams are the per-job training-budget knobs, mirroring the nptsn
// CLI flags. Zero values take the CLI defaults; GCNLayers and
// AnalyzerCache are pointers because 0 is a meaningful setting for both
// (the GCN-0 ablation and a disabled verdict cache).
type PlanParams struct {
	Epochs          int   `json:"epochs,omitempty"`
	Steps           int   `json:"steps,omitempty"`
	K               int   `json:"k,omitempty"`
	GCNLayers       *int  `json:"gcnLayers,omitempty"`
	MLPWidth        int   `json:"mlpWidth,omitempty"`
	Workers         int   `json:"workers,omitempty"`
	AnalyzerWorkers int   `json:"analyzerWorkers,omitempty"`
	AnalyzerCache   *int  `json:"analyzerCache,omitempty"`
	Seed            int64 `json:"seed,omitempty"`
	// TimeoutSec bounds the job's run time (0 = the server's default).
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
}

// normalizedParams is PlanParams with every default applied — the
// canonical form that both the planner configuration and the cache
// fingerprint are derived from.
type normalizedParams struct {
	Epochs, Steps, K, GCNLayers, MLPWidth   int
	Workers, AnalyzerWorkers, AnalyzerCache int
	Seed                                    int64
	TimeoutSec                              float64
}

// normalized applies the CLI-default values to every unset knob.
func (p PlanParams) normalized() normalizedParams {
	n := normalizedParams{
		Epochs: p.Epochs, Steps: p.Steps, K: p.K,
		GCNLayers: 2, MLPWidth: p.MLPWidth,
		Workers: p.Workers, AnalyzerWorkers: p.AnalyzerWorkers,
		AnalyzerCache: 32768, Seed: p.Seed, TimeoutSec: p.TimeoutSec,
	}
	if p.GCNLayers != nil {
		n.GCNLayers = *p.GCNLayers
	}
	if p.AnalyzerCache != nil {
		n.AnalyzerCache = *p.AnalyzerCache
	}
	if n.Epochs == 0 {
		n.Epochs = 32
	}
	if n.Steps == 0 {
		n.Steps = 256
	}
	if n.K == 0 {
		n.K = 16
	}
	if n.MLPWidth == 0 {
		n.MLPWidth = 256
	}
	if n.Workers == 0 {
		n.Workers = 1
	}
	if n.AnalyzerWorkers == 0 {
		n.AnalyzerWorkers = 1
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	return n
}

// EffectiveConfig resolves the parameters to the planner configuration a
// job submitted with them trains under, every default applied. Pretraining
// pipelines use it to shape zoo policies so that serve-time geometry
// lookups match what the submitting request will induce.
func (p PlanParams) EffectiveConfig() core.Config { return p.normalized().config() }

// config builds the planner configuration for the normalized knobs.
func (n normalizedParams) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.GCNLayers = n.GCNLayers
	cfg.MLPHidden = []int{n.MLPWidth, n.MLPWidth}
	cfg.K = n.K
	cfg.MaxEpoch = n.Epochs
	cfg.MaxStep = n.Steps
	cfg.Workers = n.Workers
	cfg.AnalyzerWorkers = n.AnalyzerWorkers
	cfg.AnalyzerCacheSize = n.AnalyzerCache
	cfg.Seed = n.Seed
	return cfg
}

// Request is the body of POST /v1/jobs: a problem spec in the same JSON
// form the CLIs exchange, planning knobs, and the certification switch.
//
// Incremental re-planning: a request may reference a prior job via Base
// and describe the change via Delta. A delta request that also carries an
// inline Problem is self-contained — Problem is the BASE spec, and the
// request's own Params and certify switches apply. Without one, the
// server resolves the base spec from its job store and inherits its knobs
// (see ResolveBase). Either way the delta is applied to the base spec, and
// planning warm-starts from the base plan when it is still in the plan
// cache.
type Request struct {
	Problem serialize.ProblemJSON `json:"problem,omitempty"`
	// Base references the job whose spec (and cached plan) this request
	// derives from: a 16-hex job ID or a 32-hex plan-cache fingerprint.
	// Empty for from-scratch requests.
	Base string `json:"base,omitempty"`
	// Delta is the spec diff applied to the base problem. A nil Delta with
	// a non-empty Base means "re-plan the base unchanged" (normally a pure
	// cache hit).
	Delta  *serialize.DeltaJSON `json:"delta,omitempty"`
	Params PlanParams           `json:"params,omitempty"`
	// Certify runs the independent certification audit on the winning
	// plan before the job is marked done (also settable via ?certify=1).
	Certify bool `json:"certify,omitempty"`
	// CertifySamples is the Monte Carlo trial count of the audit
	// (0 = 256, the certifier default).
	CertifySamples int `json:"certifySamples,omitempty"`
}

// IsDelta reports whether the request references a base job instead of
// being fully self-contained.
func (r Request) IsDelta() bool { return r.Base != "" }

// HasInlineProblem reports whether the request carries a problem spec of
// its own (delta requests may rely entirely on the server-side base).
func (r Request) HasInlineProblem() bool {
	return len(r.Problem.Connections.Vertices) > 0
}

// ResolveBase fills in the base spec of a delta request that references
// its base without carrying it inline, from base — the registered
// self-contained request of the base job (nil when the caller knows none).
// The Problem becomes the base's, and the request inherits the base's
// Params when it leaves them unset and its certify switches when it does
// not certify itself, so an empty delta reproduces the base job's
// fingerprint exactly. A request with an inline Problem is self-contained
// and returned unchanged, as is a non-delta request: which server (or
// coordinator) resolves a request never changes what it plans.
func ResolveBase(req Request, base *Request) (Request, error) {
	if !req.IsDelta() || req.HasInlineProblem() {
		return req, nil
	}
	if base == nil {
		return Request{}, fmt.Errorf("%w: %q has no spec here and the request has no inline base problem", ErrBaseNotFound, req.Base)
	}
	req.Problem = base.Problem
	if req.Params == (PlanParams{}) {
		req.Params = base.Params
	}
	if !req.Certify && base.Certify {
		req.Certify = true
		if req.CertifySamples == 0 {
			req.CertifySamples = base.CertifySamples
		}
	}
	return req, nil
}

// Derive resolves a delta request into the self-contained request the
// planner actually runs, given the base problem spec: the delta is applied
// to baseProblem, and Base/Delta are cleared. Params and the certify
// switches are kept from the delta request itself. Non-delta requests are
// returned unchanged.
func (r Request) Derive(baseProblem serialize.ProblemJSON) (Request, error) {
	if !r.IsDelta() {
		return r, nil
	}
	out := r
	out.Base = ""
	out.Delta = nil
	if r.Delta == nil {
		out.Problem = baseProblem
		return out, nil
	}
	derived, err := serialize.ApplyDelta(baseProblem, *r.Delta)
	if err != nil {
		return Request{}, fmt.Errorf("delta: %w", err)
	}
	out.Problem = derived
	return out, nil
}

// Progress is a job's live training progress, fed from the planner's
// per-epoch Progress callback.
type Progress struct {
	// Epoch is the last completed training epoch (0 before the first).
	Epoch int `json:"epoch"`
	// TotalEpochs is the job's configured training horizon.
	TotalEpochs int `json:"totalEpochs"`
	// BestCost is the best solution cost found so far (0 when none yet).
	BestCost float64 `json:"bestCost"`
	// GuaranteeMet reports whether any valid solution has been recorded.
	GuaranteeMet bool `json:"guaranteeMet"`
	// Reward is the last epoch's mean trajectory reward.
	Reward float64 `json:"reward"`
	// Solutions counts valid solutions recorded so far.
	Solutions int `json:"solutions"`
}

// Status is the client-visible snapshot of a job.
type Status struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	Progress    Progress   `json:"progress"`
	// Error explains failed and cancelled states.
	Error string `json:"error,omitempty"`
	// CacheHit marks a job answered instantly from the plan cache.
	CacheHit bool `json:"cacheHit,omitempty"`
	Certify  bool `json:"certify,omitempty"`
	// Attempts counts the server lives that have started this job; 0 for
	// jobs that never survived a restart (the common case), ≥1 after the
	// crash-recovery journal re-queued it.
	Attempts int `json:"attempts,omitempty"`
	// Fingerprint is the cache key over the canonicalized problem spec and
	// planning configuration.
	Fingerprint string `json:"fingerprint"`
	// Base is the resolved base fingerprint for delta jobs (empty for
	// from-scratch jobs).
	Base string `json:"base,omitempty"`
	// Warm reports the warm-start pruning outcome once planning began with
	// a seed from the base plan; nil when the job ran cold (no base, base
	// plan not cached, or the seed failed to build).
	Warm *core.WarmStartInfo `json:"warm,omitempty"`
	// Provenance reports where this job's answer came from: "zoo", "warm",
	// "cache" or "trained" (empty while the job has no answer yet).
	Provenance string `json:"provenance,omitempty"`
	// Chain is the ordered attempt chain the job went through ("zoo",
	// "warm", "cold"): a zoo rollout whose certificate failed falls back
	// to training, and both attempts stay visible here.
	Chain []string `json:"chain,omitempty"`
}

// Result is a finished job's outcome, served by GET /v1/jobs/{id}/result
// and persisted for restart re-serving.
type Result struct {
	JobID        string                  `json:"jobId"`
	Fingerprint  string                  `json:"fingerprint"`
	GuaranteeMet bool                    `json:"guaranteeMet"`
	Cost         float64                 `json:"cost,omitempty"`
	Epochs       int                     `json:"epochs"`
	Interrupted  bool                    `json:"interrupted,omitempty"`
	Solution     *serialize.SolutionJSON `json:"solution,omitempty"`
	Certificate  *certify.Certificate    `json:"certificate,omitempty"`
	// RunSeconds is the wall time of the attempt that produced the plan,
	// from its start to the end of the accept gate — verification and
	// certification included, for every provenance. Queue wait and
	// earlier rejected attempts are not part of it.
	RunSeconds float64 `json:"runSeconds"`
	// Provenance records how the plan was computed ("zoo", "warm",
	// "trained"); plan-cache re-serves preserve it verbatim, so a client
	// can always attribute the plan's origin.
	Provenance string `json:"provenance,omitempty"`
}

// job is the manager's internal mutable job record.
type job struct {
	// Immutable after creation.
	id          string
	fingerprint string
	prob        *core.Problem
	cfg         core.Config
	certify     bool
	certSamples int
	timeout     time.Duration

	// req is the submission the planner runs — for delta requests, the
	// DERIVED self-contained form. Journaled alongside non-terminal states
	// so a restarted server can re-queue the job (and with done states so
	// the spec can seed future deltas).
	req *Request
	// warm is the base plan decoded against the derived problem (nil = plan
	// cold).
	warm *core.Solution

	// persistMu serializes the job's record writes, snapshot through
	// rename, so a slow write of an older state (Submit journaling
	// "queued") cannot land after a newer one (the worker's "running").
	persistMu sync.Mutex

	mu sync.Mutex
	// st is the job's client-visible state, the one copy of it: status()
	// returns it, the record journals it, and a restart rebuilds it from
	// the record. Its pointers and Chain are replaced, never written
	// through, so a plain copy is a snapshot.
	st              Status
	cancel          func() // non-nil while running
	cancelRequested bool
	result          *Result
	// lastBeat is the job's liveness heartbeat while running: bumped at
	// start and on every planner Progress callback; the stuck-job watchdog
	// fails jobs whose heartbeat goes quiet for Options.StuckTimeout.
	lastBeat time.Time
	// stalled marks a job the watchdog cancelled; the terminal transition
	// maps it to StateFailed rather than StateCancelled.
	stalled bool

	// terminal is closed once the job is terminal and counted (see
	// Manager.finishLocked); tests wait on it.
	terminal chan struct{}
}

// restoredTerminal is the terminal channel of every job that is already
// terminal when it is loaded from the store: closed once, shared by all.
var restoredTerminal = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: job id entropy: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// status snapshots the job under its lock.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// noteAttempt appends one planning stage to the job's attempt chain and
// bumps the liveness heartbeat (each stage is fresh work as far as the
// stuck-job watchdog is concerned).
func (j *job) noteAttempt(stage string) {
	j.mu.Lock()
	// Clipped, the append copies instead of writing a snapshot's array.
	j.st.Chain = append(slices.Clip(j.st.Chain), stage)
	j.lastBeat = time.Now()
	j.mu.Unlock()
}

// beat bumps the job's liveness heartbeat.
func (j *job) beat() {
	j.mu.Lock()
	j.lastBeat = time.Now()
	j.mu.Unlock()
}

// prepared bundles everything Submit derives from a request before the
// job enters the queue.
type prepared struct {
	prob        *core.Problem
	cfg         core.Config
	fingerprint string
	certify     bool
	certSamples int
	timeout     time.Duration
}

// prepare validates and canonicalizes a request: the problem spec is
// decoded and re-encoded (so JSON field order, whitespace and the order of
// candidate links cannot split the cache), the planner configuration is
// built with defaults applied, a planner construction dry-run surfaces
// invalid spec/config combinations at submit time, and the plan-cache
// fingerprint is computed over the canonical form. Flow order survives
// canonicalization: it sets the NBF's scheduling order, so it is part of
// the job's identity (TestFingerprintCanonicalizesSpec).
func prepare(req Request) (prepared, error) {
	prob, err := serialize.DecodeProblem(req.Problem, nbf.NewRegistry())
	if err != nil {
		return prepared{}, fmt.Errorf("problem spec: %w", err)
	}
	n := req.Params.normalized()
	cfg := n.config()
	if _, err := core.NewPlanner(prob, cfg); err != nil {
		return prepared{}, fmt.Errorf("planner config: %w", err)
	}
	canonical, err := json.Marshal(serialize.EncodeProblem(prob, req.Problem.NBF))
	if err != nil {
		return prepared{}, fmt.Errorf("canonicalize problem: %w", err)
	}
	certSamples := req.CertifySamples
	if certSamples == 0 {
		certSamples = 256
	}
	return prepared{
		prob:        prob,
		cfg:         cfg,
		fingerprint: jobFingerprint(canonical, n, req.Certify, certSamples),
		certify:     req.Certify,
		certSamples: certSamples,
		timeout:     time.Duration(n.TimeoutSec * float64(time.Second)),
	}, nil
}

// Fingerprint validates req exactly the way Submit does and returns the
// plan-cache fingerprint Submit would assign to it — the problem identity
// the fleet coordinator shards on and adopts by. Two requests share a
// fingerprint exactly when a finished plan for one answers the other.
//
// For a delta request the fingerprint is that of the DERIVED problem, so
// it only computes when the request carries its base spec inline; a
// base-by-reference request must be resolved by a Manager first. The warm
// start is deliberately not part of the fingerprint: warm and cold runs of
// the same derived problem answer the same question, and an empty delta
// must land on the base's own cache entry.
func Fingerprint(req Request) (string, error) {
	req, err := ResolveBase(req, nil)
	if err != nil {
		return "", err
	}
	if req, err = req.Derive(req.Problem); err != nil {
		return "", err
	}
	prep, err := prepare(req)
	if err != nil {
		return "", err
	}
	return prep.fingerprint, nil
}

// jobFingerprint digests the canonical problem encoding plus every
// outcome-relevant parameter with the failure analyzer's 128-bit content
// hash. Two requests share a fingerprint exactly when a finished plan for
// one is a valid answer for the other. TimeoutSec is excluded: it bounds
// wall clock, not the (deterministic) trajectory, and interrupted results
// are never cached.
func jobFingerprint(canonicalProblem []byte, n normalizedParams, doCertify bool, certSamples int) string {
	d := failure.NewDigest()
	d.Str("nptsn-service-job-v1")
	d.Bytes(canonicalProblem)
	d.Int(n.Epochs)
	d.Int(n.Steps)
	d.Int(n.K)
	d.Int(n.GCNLayers)
	d.Int(n.MLPWidth)
	d.Int(n.Workers)
	d.Int(n.AnalyzerWorkers)
	d.Int(n.AnalyzerCache)
	d.Int64(n.Seed)
	d.Bool(doCertify)
	if doCertify {
		d.Int(certSamples)
	}
	return d.Sum()
}
