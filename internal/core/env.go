package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/asil"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/rng"
	"repro/internal/tsn"
)

// StepOutcome classifies what happened after applying an action.
type StepOutcome int

const (
	// OutcomeContinue means construction goes on.
	OutcomeContinue StepOutcome = iota + 1
	// OutcomeSolved means the reliability guarantee was established; the
	// TSSDN was recorded and reset.
	OutcomeSolved
	// OutcomeDeadEnd means no valid actions remain (or an unmasked action
	// turned out invalid in ablation mode); the TSSDN was reset with the
	// invalid-solution penalty applied.
	OutcomeDeadEnd
)

// Env is the RL environment of Algorithm 2: it owns the TSSDN construction
// state, consults the failure analyzer after every action, and produces
// rewards from cost deltas.
type Env struct {
	prob     *Problem
	soag     *SOAG
	analyzer *failure.Analyzer
	enc      *Encoder
	scaler   float64
	src      *rng.Source
	rng      *rand.Rand
	// rngBeforeGen is the RNG state captured immediately before the last
	// SOAG generation. Checkpoints store it: restoring it and re-running
	// the analyzer regenerates the identical action set and leaves the RNG
	// exactly where the uninterrupted run had it.
	rngBeforeGen uint64

	// warm, when non-nil, is the pruned warm-start seed replayed onto the
	// state at construction and after every reset — incremental
	// re-planning's "start from the surviving prior plan" mode.
	warm *warmSeed

	state   *TSSDN
	actions *ActionSet
	lastGf  nbf.Failure
	lastER  []tsn.Pair
	lastOK  bool
	cost    float64

	best *Solution
	// counters
	Steps     int
	Solutions int
	DeadEnds  int
	NBFCalls  int
	// Resets counts construction-state resets (after a recorded solution,
	// a dead end, or a planner re-arm) — telemetry only, not checkpointed.
	Resets int
	// analysis observability (accumulated across AnalyzeContext calls)
	analysisTime   time.Duration
	analysisHits   int
	analysisMisses int
}

// AnalysisStats reports the accumulated failure-analysis wall-clock and
// verdict-cache hit/miss counts of this environment.
func (e *Env) AnalysisStats() (d time.Duration, hits, misses int) {
	return e.analysisTime, e.analysisHits, e.analysisMisses
}

// NewEnvWithCache builds an environment that consults cache, which may be
// shared with other environments or nil, for failure-analysis verdicts.
// The seed drives the SOAG's random pair selection and nothing else
// (action sampling uses the agent's RNG).
func NewEnvWithCache(prob *Problem, cfg Config, seed int64, cache *failure.Cache) (*Env, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	soag, err := NewSOAG(prob, cfg.K)
	if err != nil {
		return nil, err
	}
	soag.DisableDegreeMask = cfg.DisableSOAGMasking
	soag.ExhaustiveValidPaths = cfg.ExhaustivePathGeneration
	src := rng.New(seed)
	e := &Env{
		prob: prob,
		soag: soag,
		analyzer: &failure.Analyzer{
			Lib:                 prob.Library,
			NBF:                 prob.NBF,
			Net:                 prob.Net,
			R:                   prob.ReliabilityGoal,
			FlowLevelRedundancy: prob.FlowLevelRedundancy,
			ESLevel:             prob.ESLevel,
			Workers:             cfg.AnalyzerWorkers,
			Cache:               cache,
		},
		enc:    NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding),
		scaler: cfg.RewardScale,
		src:    src,
		rng:    rand.New(src),
		state:  NewTSSDN(prob),
	}
	if cfg.WarmStart != nil {
		ws, err := buildWarmSeed(prob, cfg.WarmStart)
		if err != nil {
			return nil, err
		}
		e.warm = ws
		e.warm.apply(e.state)
		e.cost = ws.cost
	}
	if err := e.analyzeAndGenerate(context.Background()); err != nil {
		return nil, err
	}
	if e.warm != nil {
		e.warm.info.SeedSolved = e.lastOK
	}
	return e, nil
}

// WarmInfo returns the warm-start pruning outcome (zero value when the
// environment was not warm-started).
func (e *Env) WarmInfo() WarmStartInfo {
	if e.warm == nil {
		return WarmStartInfo{}
	}
	return e.warm.info
}

// Cost returns the running Eq. 1 cost of the construction state.
func (e *Env) Cost() float64 { return e.cost }

// analyzeAndGenerate runs the failure analyzer on the current state and
// refreshes the action set from the SOAG.
func (e *Env) analyzeAndGenerate(ctx context.Context) error {
	res, err := e.analyzer.AnalyzeContext(ctx, e.state.Topo, e.state.Assign, e.prob.Flows)
	if err != nil {
		return fmt.Errorf("env: %w", err)
	}
	e.NBFCalls += res.NBFCalls
	e.analysisTime += res.Duration
	e.analysisHits += res.CacheHits
	e.analysisMisses += res.CacheMisses
	e.lastGf = res.Failure
	e.lastER = res.ER
	e.lastOK = res.OK
	e.rngBeforeGen = e.src.State()
	e.actions = e.soag.Generate(e.state, e.lastGf, e.lastER, e.rng)
	return nil
}

// Observation encodes the current state and action set.
func (e *Env) Observation() *Obs { return e.enc.Encode(e.state, e.actions) }

// Mask returns the current action mask (aliased; do not mutate).
func (e *Env) Mask() []bool { return e.actions.Mask }

// Actions exposes the current action set (for tests and tracing).
func (e *Env) Actions() *ActionSet { return e.actions }

// Best returns the best solution recorded so far (nil if none).
func (e *Env) Best() *Solution { return e.best }

// State exposes the construction state (read-only use).
func (e *Env) State() *TSSDN { return e.state }

// Solved reports whether the current network already meets the guarantee
// (true before any step only for trivial problems, e.g. no flows).
func (e *Env) Solved() bool { return e.lastOK }

// reset clears the TSSDN — back to the warm seed when one is configured,
// else to the empty network — and refreshes analysis + actions.
func (e *Env) reset(ctx context.Context) error {
	e.state.Reset()
	e.cost = 0
	if e.warm != nil {
		e.warm.apply(e.state)
		e.cost = e.warm.cost
	}
	e.Resets++
	return e.analyzeAndGenerate(ctx)
}

// Step applies action index idx (which must be unmasked unless SOAG
// masking is disabled), returning the scaled reward and the outcome. On
// OutcomeSolved the solution has been recorded and the state reset; on
// OutcomeDeadEnd the state has been reset and the reward includes the -1
// penalty (Algorithm 2, lines 8-16).
func (e *Env) Step(idx int) (float64, StepOutcome, error) {
	return e.StepContext(context.Background(), idx)
}

// StepContext is Step with cancellation: the failure analysis triggered by
// the action checks ctx before every NBF recovery simulation, so a
// deadline or a SIGINT-driven cancel interrupts even a long analysis. On
// cancellation the error wraps ctx.Err().
func (e *Env) StepContext(ctx context.Context, idx int) (float64, StepOutcome, error) {
	if idx < 0 || idx >= e.actions.Size() {
		return 0, 0, fmt.Errorf("env: action index %d out of range", idx)
	}
	e.Steps++
	action := e.actions.Actions[idx]

	var applyErr error
	switch action.Kind {
	case ActionSwitchUpgrade:
		applyErr = e.state.UpgradeSwitch(action.Switch)
	case ActionPathAdd:
		applyErr = e.state.AddPath(action.Path)
	default:
		applyErr = fmt.Errorf("env: selected an empty action slot %d", idx)
	}
	if applyErr != nil {
		// Only reachable with SOAG masking disabled (the ablation): the
		// invalid attempt ends the exploration like a dead end.
		if !e.soag.DisableDegreeMask {
			return 0, 0, fmt.Errorf("env: unmasked action failed: %w", applyErr)
		}
		e.DeadEnds++
		if err := e.reset(ctx); err != nil {
			return 0, 0, err
		}
		return -1, OutcomeDeadEnd, nil
	}

	newCost, err := e.state.Cost()
	if err != nil {
		return 0, 0, fmt.Errorf("env: %w", err)
	}
	// Reward: previous cost minus new cost (negative), scaled into [-1, 0).
	reward := (e.cost - newCost) / e.scaler
	e.cost = newCost

	if err := e.analyzeAndGenerate(ctx); err != nil {
		return 0, 0, err
	}
	if e.lastOK {
		// Reliability requirement met: record and reset (line 10-12).
		e.Solutions++
		if e.best == nil || newCost < e.best.Cost {
			e.best = &Solution{
				Topology:    e.state.Topo.Clone(),
				Assignment:  e.state.Assign.Clone(),
				Cost:        newCost,
				FoundAtStep: e.Steps,
			}
		}
		if err := e.reset(ctx); err != nil {
			return 0, 0, err
		}
		return reward, OutcomeSolved, nil
	}
	if e.actions.AllMasked() {
		// No valid action remains: penalty and reset (line 14-16).
		e.DeadEnds++
		if err := e.reset(ctx); err != nil {
			return 0, 0, err
		}
		return reward - 1, OutcomeDeadEnd, nil
	}
	return reward, OutcomeContinue, nil
}

// EnvState is a serializable snapshot of the environment at an epoch
// boundary: the TSSDN under construction, the running cost, the outcome
// counters and the RNG state from just before the current action set was
// generated. The best-so-far solution is carried separately (see
// WorkerState) because it needs the richer solution codec.
type EnvState struct {
	Edges     []graph.Edge       `json:"edges,omitempty"`
	Switches  map[int]asil.Level `json:"switches,omitempty"`
	Cost      float64            `json:"cost"`
	Steps     int                `json:"steps"`
	Solutions int                `json:"solutions"`
	DeadEnds  int                `json:"deadEnds"`
	NBFCalls  int                `json:"nbfCalls"`
	RNG       uint64             `json:"rng"`
}

// ExportState snapshots the environment. All mutable data is deep-copied,
// so the snapshot stays valid while the environment keeps stepping.
func (e *Env) ExportState() EnvState {
	st := EnvState{
		Edges:     e.state.Topo.Edges(),
		Cost:      e.cost,
		Steps:     e.Steps,
		Solutions: e.Solutions,
		DeadEnds:  e.DeadEnds,
		NBFCalls:  e.NBFCalls,
		RNG:       e.rngBeforeGen,
	}
	if len(e.state.Assign.Switches) > 0 {
		st.Switches = make(map[int]asil.Level, len(e.state.Assign.Switches))
		for sw, lvl := range e.state.Assign.Switches {
			st.Switches[sw] = lvl
		}
	}
	return st
}

// ImportState restores a snapshot taken with ExportState against the same
// problem. It rebuilds the TSSDN (link ASILs are re-derived from the
// endpoint-minimum invariant), rewinds the RNG to the pre-generation state
// and re-runs the failure analysis, which regenerates the exact action set
// the snapshotted environment was holding. best becomes the environment's
// best-so-far solution (cloned; nil is allowed).
func (e *Env) ImportState(st EnvState, best *Solution) error {
	e.state.Reset()
	for sw, lvl := range st.Switches {
		if e.prob.Connections.Kind(sw) != graph.KindSwitch {
			return fmt.Errorf("env: restore: vertex %d is not an optional switch", sw)
		}
		if !lvl.Valid() {
			return fmt.Errorf("env: restore: switch %d has invalid ASIL %d", sw, int(lvl))
		}
		e.state.Assign.Switches[sw] = lvl
	}
	for _, ed := range st.Edges {
		if !e.prob.Connections.HasEdge(ed.U, ed.V) {
			return fmt.Errorf("env: restore: edge (%d,%d) not in the connection graph", ed.U, ed.V)
		}
		if err := e.state.Topo.AddEdge(ed.U, ed.V, ed.Length); err != nil {
			return fmt.Errorf("env: restore: %w", err)
		}
		e.state.Assign.SetLink(ed.U, ed.V, asil.Min(e.state.vertexLevel(ed.U), e.state.vertexLevel(ed.V)))
	}
	if err := e.state.CheckInvariants(); err != nil {
		return fmt.Errorf("env: restore: %w", err)
	}
	e.src.SetState(st.RNG)
	if err := e.analyzeAndGenerate(context.Background()); err != nil {
		return fmt.Errorf("env: restore: %w", err)
	}
	// Counters are restored after the analysis so its NBF calls don't
	// double-count against the snapshot.
	e.cost = st.Cost
	e.Steps = st.Steps
	e.Solutions = st.Solutions
	e.DeadEnds = st.DeadEnds
	e.NBFCalls = st.NBFCalls
	e.best = nil
	if best != nil {
		e.best = best.Clone()
	}
	return nil
}
