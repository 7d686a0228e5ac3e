package scenarios

import (
	"fmt"
	"math/rand"

	"repro/internal/nbf"
	"repro/internal/serialize"
)

// ChurnTrace is a base problem spec plus a sequence of spec diffs, modeling
// the flow churn a vehicle program sees across planning runs: functions are
// added and retired. Each step's delta applies to the problem produced by
// the previous step (not to the original base), so a trace replays as a
// chain of incremental re-plans — exactly what the warm-start evaluation
// measures.
type ChurnTrace struct {
	// Name identifies the trace (scenario + churn parameters + seed).
	Name string
	// Base is the initial problem spec.
	Base serialize.ProblemJSON
	// Steps are the spec diffs, each relative to its predecessor's output.
	Steps []serialize.DeltaJSON
}

// A churn trace's base problem uses the stateless greedy NBF and the
// reliability goal R = 1e-6.
const (
	churnRecovery        = "stateless-greedy"
	churnReliabilityGoal = 1e-6
)

// ChurnOptions parameterizes Churn.
type ChurnOptions struct {
	// Scenario is the topology the trace runs over. Required.
	Scenario *Scenario
	// BaseFlows is the initial flow count (default 4).
	BaseFlows int
	// Steps is the number of deltas to emit (default 4).
	Steps int
	// AddsPerStep and RemovesPerStep bound the flow churn each delta carries
	// (defaults 1 and 0; pass AddsPerStep = -1 for a remove-only trace).
	// Removals drop the oldest surviving flows and are capped so at least
	// one flow always remains.
	AddsPerStep    int
	RemovesPerStep int
	// Seed drives flow generation and churn choices; must be non-zero, for
	// the same reason Random rejects zero seeds.
	Seed int64
}

// Churn generates a base+delta trace over the scenario. Every emitted delta
// is validated by actually applying it (via serialize.ApplyDelta) to the
// running spec while the trace is built, so a returned trace is guaranteed
// to replay cleanly step by step.
func Churn(opts ChurnOptions) (*ChurnTrace, error) {
	if opts.Scenario == nil {
		return nil, fmt.Errorf("churn trace: Scenario is required")
	}
	if opts.Seed == 0 {
		return nil, fmt.Errorf("churn trace: seed must be non-zero (0 is indistinguishable from an unset option)")
	}
	if opts.BaseFlows <= 0 {
		opts.BaseFlows = 4
	}
	if opts.Steps <= 0 {
		opts.Steps = 4
	}
	if opts.AddsPerStep == 0 {
		opts.AddsPerStep = 1
	} else if opts.AddsPerStep < 0 {
		opts.AddsPerStep = 0
	}
	if opts.RemovesPerStep < 0 {
		opts.RemovesPerStep = 0
	}
	recovery, err := nbf.NewRegistry().New(churnRecovery)
	if err != nil {
		return nil, fmt.Errorf("churn trace: %w", err)
	}

	s := opts.Scenario
	prob := s.Problem(s.RandomFlows(opts.BaseFlows, opts.Seed), recovery, churnReliabilityGoal)
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("churn trace: base problem: %w", err)
	}
	base := serialize.EncodeProblem(prob, churnRecovery)

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x636875726e)) // distinct stream from flow gen
	trace := &ChurnTrace{
		Name: fmt.Sprintf("churn-%s-%df-%ds-%d", s.Name, opts.BaseFlows, opts.Steps, opts.Seed),
		Base: base,
	}

	cur := base
	nextID := 0
	for _, f := range cur.Flows {
		if f.ID >= nextID {
			nextID = f.ID + 1
		}
	}
	for step := 0; step < opts.Steps; step++ {
		var d serialize.DeltaJSON
		// Removals first: drop the oldest surviving flows, keeping >= 1.
		removable := len(cur.Flows) - 1
		for i := 0; i < opts.RemovesPerStep && i < removable; i++ {
			d.RemoveFlows = append(d.RemoveFlows, cur.Flows[i].ID)
		}
		// Additions: fresh IDs past every ID ever used, fresh flow shapes.
		adds := newFlows(s, rng, opts.AddsPerStep, nextID, cur.BasePeriodNs)
		nextID += len(adds)
		d.AddFlows = adds
		next, err := serialize.ApplyDelta(cur, d)
		if err != nil {
			return nil, fmt.Errorf("churn trace: step %d does not apply: %w", step, err)
		}
		trace.Steps = append(trace.Steps, d)
		cur = next
	}
	return trace, nil
}

// newFlows draws n fresh unicast flows with IDs firstID.. over the
// scenario's end stations, mirroring RandomFlows but at the JSON level.
func newFlows(s *Scenario, rng *rand.Rand, n, firstID int, periodNs int64) []serialize.FlowJSON {
	es := make([]int, 0)
	for _, v := range serialize.EncodeGraph(s.Connections).Vertices {
		if v.Kind == "es" {
			es = append(es, v.ID)
		}
	}
	out := make([]serialize.FlowJSON, 0, n)
	for i := 0; i < n; i++ {
		src := es[rng.Intn(len(es))]
		dst := es[rng.Intn(len(es))]
		for dst == src {
			dst = es[rng.Intn(len(es))]
		}
		out = append(out, serialize.FlowJSON{
			ID:         firstID + i,
			Name:       fmt.Sprintf("%s-churn-%d", s.Name, firstID+i),
			Src:        src,
			Dsts:       []int{dst},
			PeriodNs:   periodNs,
			DeadlineNs: periodNs,
			FrameSize:  100 + rng.Intn(400),
		})
	}
	return out
}
