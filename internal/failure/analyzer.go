// Package failure implements the failure analyzer of §V: the failure
// injection algorithm (Algorithm 3) that verifies a TSSDN topology against
// its reliability goal R by simulating the NBF on every non-safe fault, the
// link-to-switch failure reduction of Eq. 6, and a brute-force reference
// checker used to validate both.
package failure

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/asil"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// Analyzer verifies the reliability guarantee of a planned TSSDN.
type Analyzer struct {
	// Lib provides component failure probabilities.
	Lib *asil.Library
	// NBF is the stateless recovery mechanism to simulate.
	NBF nbf.NBF
	// Net is the TAS timing configuration.
	Net tsn.Network
	// R is the reliability goal: failures with probability below R are safe
	// faults and need not be survived.
	R float64

	// FlowLevelRedundancy switches Algorithm 3 to enumerate failures over
	// all topology nodes (V^t) instead of switches only, the §V variant for
	// flow-level redundant setups.
	FlowLevelRedundancy bool
	// DisableSupersetPruning turns off the checked-superset cache (for the
	// ablation benchmark); results are unchanged, only cost grows.
	DisableSupersetPruning bool
	// ESLevel is the ASIL attributed to end stations when
	// FlowLevelRedundancy is enabled (end stations otherwise never fail;
	// §II-C treats their failures as safe faults). Defaults to ASIL-D.
	ESLevel asil.Level

	// Workers bounds the scenario-simulation worker pool. Values <= 1 run
	// every simulation inline on the calling goroutine (the sequential
	// path). Results are bit-identical either way; see the determinism
	// argument on the engine type.
	Workers int
	// Cache, when non-nil, memoizes per-scenario recovery verdicts across
	// Analyze calls. Share one Cache across all environments of a run; nil
	// disables memoization.
	Cache *Cache
}

// Result is the outcome of a reliability analysis.
type Result struct {
	// OK is true when the reliability guarantee is established.
	OK bool
	// Failure is a non-recoverable non-safe fault when OK is false.
	Failure nbf.Failure
	// ER is the NBF error message under Failure.
	ER []tsn.Pair
	// MaxOrder is the highest failure order that had to be considered.
	MaxOrder int
	// NBFCalls counts recovery simulations performed (the expensive part).
	// With Workers > 1 the count may include a few speculative simulations
	// completed before an earlier counterexample was known; it is exact on
	// the sequential path.
	NBFCalls int
	// ScenariosConsidered counts candidate subsets enumerated, including
	// those skipped by probability or superset pruning. Deterministic in
	// all modes.
	ScenariosConsidered int
	// CacheHits / CacheMisses count verdict-cache lookups of this call
	// (zero when no cache is configured).
	CacheHits   int
	CacheMisses int
	// Duration is the analysis wall-clock time.
	Duration time.Duration
	// Occupancy is the fraction of Workers x Duration spent inside recovery
	// simulations — 1.0 means the pool never starved.
	Occupancy float64
}

func (a *Analyzer) validate() error {
	if a.Lib == nil {
		return fmt.Errorf("analyzer: nil component library")
	}
	if a.NBF == nil {
		return fmt.Errorf("analyzer: nil NBF")
	}
	if err := a.Net.Validate(); err != nil {
		return fmt.Errorf("analyzer: %w", err)
	}
	if a.R <= 0 || a.R >= 1 {
		return fmt.Errorf("analyzer: reliability goal %v must be in (0,1)", a.R)
	}
	return nil
}

// candidateNodes returns the failure-candidate node IDs and their failure
// probabilities, sorted by decreasing probability (ties by ID).
func (a *Analyzer) candidateNodes(gt *graph.Graph, assign *asil.Assignment) ([]int, map[int]float64, error) {
	esLevel := a.ESLevel
	if esLevel == 0 {
		esLevel = asil.LevelD
	}
	var ids []int
	prob := make(map[int]float64)
	for _, sw := range gt.VerticesOfKind(graph.KindSwitch) {
		lvl, selected := assign.Switches[sw]
		if !selected {
			continue
		}
		if !lvl.Valid() {
			return nil, nil, fmt.Errorf("analyzer: switch %d has invalid ASIL %d", sw, int(lvl))
		}
		ids = append(ids, sw)
		prob[sw] = a.Lib.FailureProb(lvl)
	}
	if a.FlowLevelRedundancy {
		for _, es := range gt.VerticesOfKind(graph.KindEndStation) {
			ids = append(ids, es)
			prob[es] = a.Lib.FailureProb(esLevel)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if prob[ids[i]] != prob[ids[j]] {
			return prob[ids[i]] > prob[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids, prob, nil
}

// maxOrder computes maxord of Algorithm 3: the largest k such that the
// product of the k highest failure probabilities is still >= R.
func maxOrder(sortedIDs []int, prob map[int]float64, r float64) int {
	p := 1.0
	ord := 0
	for _, id := range sortedIDs {
		p *= prob[id]
		if p < r {
			break
		}
		ord++
	}
	return ord
}

// Analyze runs Algorithm 3 on topology gt with ASIL assignment assign and
// flow specification fs. It returns OK when every non-safe fault is
// recoverable, or the first non-recoverable failure scenario found together
// with its error message.
func (a *Analyzer) Analyze(gt *graph.Graph, assign *asil.Assignment, fs tsn.FlowSet) (Result, error) {
	return a.AnalyzeContext(context.Background(), gt, assign, fs)
}

// AnalyzeContext is Analyze with cancellation: the scenario enumeration
// checks ctx before every recovery simulation (the expensive inner step),
// so deadlines and SIGINT-driven cancellation take effect promptly even on
// large failure spaces. On cancellation it returns ctx.Err().
func (a *Analyzer) AnalyzeContext(ctx context.Context, gt *graph.Graph, assign *asil.Assignment, fs tsn.FlowSet) (Result, error) {
	if err := a.validate(); err != nil {
		return Result{}, err
	}
	ids, prob, err := a.candidateNodes(gt, assign)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res := Result{MaxOrder: maxOrder(ids, prob, a.R)}
	eng := newEngine(ctx, a, gt, assign, fs, ids, prob)
	defer eng.close()
	finish := func() {
		res.NBFCalls = int(eng.nbfCalls.Load())
		res.CacheHits = eng.hits
		res.CacheMisses = eng.misses
		res.Duration = time.Since(start)
		if busy := time.Duration(eng.busy.Load()); res.Duration > 0 {
			res.Occupancy = float64(busy) / (float64(res.Duration) * float64(eng.workers))
		}
	}

	// Highest order first so the superset cache prunes the most work
	// (line 3 of Algorithm 3 iterates {maxord, ..., 1, 0}).
	for order := res.MaxOrder; order >= 0; order-- {
		found, er, err := eng.runOrder(order, &res)
		if err != nil {
			return Result{}, fmt.Errorf("analyze order %d: %w", order, err)
		}
		if found != nil {
			res.Failure = *found
			res.ER = er
			finish()
			return res, nil
		}
	}
	res.OK = true
	finish()
	return res, nil
}
