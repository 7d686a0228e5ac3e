package eval

import (
	"context"
	"fmt"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/scenarios"
)

// Fig4Options configures the performance-evaluation sweep of §VI-A.
type Fig4Options struct {
	// Scenario supplies the connection graph and (for Original) the manual
	// topology.
	Scenario *scenarios.Scenario
	// FlowCounts are the x-axis points (10..50 in the paper).
	FlowCounts []int
	// Cases is the number of random test cases per flow count (10).
	Cases int
	// Seed drives flow generation; case i of count n uses Seed + n*1000 + i.
	Seed int64
	// Cfg sets the training budget of both RL approaches.
	Cfg core.Config
	// Approaches selects the lineup (default: all four).
	Approaches []Approach
	// Progress, when non-nil, receives per-case status lines.
	Progress func(format string, args ...interface{})
	// Certify runs the independent certification audit (internal/certify)
	// on every solution produced and records the verdict per test case.
	Certify bool
	// CertifyOptions bounds the audit effort when Certify is set.
	CertifyOptions certify.Options
}

func (o *Fig4Options) defaults() {
	if len(o.FlowCounts) == 0 {
		o.FlowCounts = []int{10, 20, 30, 40, 50}
	}
	if o.Cases == 0 {
		o.Cases = 10
	}
	if len(o.Approaches) == 0 {
		o.Approaches = AllApproaches()
	}
	if o.Progress == nil {
		o.Progress = func(string, ...interface{}) {}
	}
}

// fig4Reliability is the sweep's reliability goal R (§VI-A).
const fig4Reliability = 1e-6

// RunFig4 executes the full sweep: for every flow count it generates
// `Cases` random flow sets and runs each selected approach, aggregating
// guarantee rates, mean costs and ASIL histograms.
func RunFig4(opts Fig4Options) (*Fig4Result, error) {
	opts.defaults()
	if opts.Scenario == nil {
		return nil, fmt.Errorf("fig4: nil scenario")
	}
	// The default stateless greedy recovery, the [9] stand-in.
	recovery := &nbf.StatelessRecovery{MaxAlternatives: 3}
	result := &Fig4Result{Approaches: opts.Approaches}
	for _, n := range opts.FlowCounts {
		var cases []map[Approach]CaseResult
		for c := 0; c < opts.Cases; c++ {
			flows := opts.Scenario.RandomFlows(n, opts.Seed+int64(n)*1000+int64(c))
			prob := opts.Scenario.Problem(flows, recovery, fig4Reliability)
			res, err := RunCase(prob, opts.Scenario.Original, opts.Cfg, opts.Approaches)
			if err != nil {
				return nil, fmt.Errorf("fig4: %d flows case %d: %w", n, c, err)
			}
			if opts.Certify {
				for ap, cr := range res {
					if cr.Solution == nil {
						continue
					}
					cert, err := (&certify.Certifier{
						Prob: prob, Sol: cr.Solution, Opt: opts.CertifyOptions,
					}).Certify(context.Background())
					if err != nil {
						return nil, fmt.Errorf("fig4: %d flows case %d: certify %s: %w", n, c, ap, err)
					}
					cr.CertVerdict = cert.Verdict
					res[ap] = cr
					opts.Progress("fig4: flows=%d case=%d %s certificate %s", n, c, ap, cert.Verdict)
				}
			}
			opts.Progress("fig4: flows=%d case=%d done", n, c)
			cases = append(cases, res)
		}
		result.Rows = append(result.Rows, Aggregate(n, cases, opts.Approaches))
	}
	return result, nil
}
