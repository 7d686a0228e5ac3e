package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/nbf"
	"repro/internal/scenarios"
	"repro/internal/serialize"
	"repro/internal/zoo"
)

// ZooChurnCase is one churn step served both ways: through the zoo
// inference fast path (when it hits and certifies) and by cold training.
type ZooChurnCase struct {
	// Step is the trace step index (0-based).
	Step int
	// Delta summarizes the spec diff ("+2f -1f" = 2 adds, 1 remove).
	Delta string
	// Outcome attributes the fast path's answer for this step: "zoo"
	// (policy hit, rollout plan certified), "reject" (hit, but the plan
	// failed verification or certification, so the step fell back to
	// training) or "miss" (no geometry-compatible policy).
	Outcome string
	// Policy is the matched zoo entry's scenario name ("" on a miss) and
	// Distance its feature distance from this step's problem.
	Policy   string
	Distance float64
	// ZooEnvSteps counts the inference rollout's environment steps; a miss
	// records zero. ColdEnvSteps counts the cold run's training steps.
	ZooEnvSteps, ColdEnvSteps int
	// ZooWall covers lookup + rollout + certification; ColdWall is the
	// cold run's training time.
	ZooWall, ColdWall time.Duration
	// ColdSolved reports whether cold training found a valid plan.
	ColdSolved bool
}

// ZooChurnResult is the zoo-hit-rate evaluation over a churn trace.
type ZooChurnResult struct {
	Trace string
	// Policies is the zoo's size during the run.
	Policies int
	Cases    []ZooChurnCase
}

// ZooChurnOptions configures RunZooChurn.
type ZooChurnOptions struct {
	// Zoo is the policy zoo to measure. Pretrain it on the same scenario
	// family the trace churns over for a meaningful hit rate.
	Zoo *zoo.Zoo
	// Cfg is the cold-training budget; its geometry knobs (K, MLPHidden,
	// GCNLayers, ...) must match the pretrained policies or every lookup
	// is a geometry miss.
	Cfg core.Config
	// CertifySamples bounds the Monte Carlo audit per zoo candidate
	// (default 64 — this is an evaluation, not production serving).
	CertifySamples int
}

// RunZooChurn replays a churn trace through the zoo inference fast path
// and, for comparison, through cold training: each step is answered by
// nearest-policy lookup + greedy rollout + certification when possible,
// and the work both routes spent is recorded. The result is the zoo's
// hit rate under churn — how often amortized inference (zero training
// epochs) replaces a full training run — and what it saves.
func RunZooChurn(trace *scenarios.ChurnTrace, opt ZooChurnOptions) (*ZooChurnResult, error) {
	if opt.Zoo == nil {
		return nil, fmt.Errorf("zoo-churn: no zoo")
	}
	if opt.CertifySamples == 0 {
		opt.CertifySamples = 64
	}
	reg := nbf.NewRegistry()
	verdicts := failure.NewCache(1 << 16)
	ctx := context.Background()

	res := &ZooChurnResult{Trace: trace.Name, Policies: opt.Zoo.Len()}
	spec := trace.Base
	for i, d := range trace.Steps {
		next, err := serialize.ApplyDelta(spec, d)
		if err != nil {
			return nil, fmt.Errorf("zoo-churn: step %d: %w", i, err)
		}
		prob, err := serialize.DecodeProblem(next, reg)
		if err != nil {
			return nil, fmt.Errorf("zoo-churn: step %d: %w", i, err)
		}
		spec = next

		c := ZooChurnCase{Step: i, Delta: summarizeDelta(d)}

		// Fast path: lookup, greedy rollout, certification gate.
		zooStart := time.Now()
		c.Outcome = "miss"
		geo, err := zoo.GeometryOf(prob, opt.Cfg)
		if err != nil {
			return nil, fmt.Errorf("zoo-churn: step %d: %w", i, err)
		}
		if m, ok := opt.Zoo.Lookup(geo, zoo.FeaturesOf(prob)); ok {
			c.Policy, c.Distance = m.Entry.Name, m.Distance
			cfg := opt.Cfg
			cfg.SharedAnalyzerCache = verdicts
			sol, stats, err := zoo.Rollout(ctx, prob, cfg, m.Weights)
			c.ZooEnvSteps = stats.EnvSteps
			switch {
			case err != nil || sol == nil:
				c.Outcome = "reject"
			case core.VerifySolution(prob, sol) != nil:
				c.Outcome = "reject"
			default:
				cert, err := (&certify.Certifier{
					Prob: prob,
					Sol:  sol,
					Opt: certify.Options{
						Samples:         opt.CertifySamples,
						Seed:            cfg.Seed,
						AnalyzerWorkers: cfg.AnalyzerWorkers,
					},
				}).Certify(ctx)
				if err == nil && cert.OK() {
					c.Outcome = "zoo"
				} else {
					c.Outcome = "reject"
				}
			}
		}
		c.ZooWall = time.Since(zooStart)

		// The comparison (and the fallback the service would take on a
		// miss or reject): cold training from scratch.
		planner, err := core.NewPlanner(prob, opt.Cfg)
		if err != nil {
			return nil, fmt.Errorf("zoo-churn: step %d cold: %w", i, err)
		}
		coldStart := time.Now()
		report, err := planner.Plan()
		if err != nil {
			return nil, fmt.Errorf("zoo-churn: step %d cold: %w", i, err)
		}
		c.ColdWall = time.Since(coldStart)
		c.ColdEnvSteps = envSteps(report)
		c.ColdSolved = report.Best != nil

		res.Cases = append(res.Cases, c)
	}
	return res, nil
}

// HitRate is the fraction of steps the zoo answered with a certified
// inference-only plan.
func (r *ZooChurnResult) HitRate() float64 {
	if len(r.Cases) == 0 {
		return 0
	}
	hits := 0
	for _, c := range r.Cases {
		if c.Outcome == "zoo" {
			hits++
		}
	}
	return float64(hits) / float64(len(r.Cases))
}

// Render formats the zoo-vs-cold table plus hit rate and savings.
func (r *ZooChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zoo inference fast path under churn: %s (%d policies)\n", r.Trace, r.Policies)
	fmt.Fprintf(&b, "%-4s %-12s %-7s %-16s %6s %10s %10s %12s %12s\n",
		"step", "delta", "origin", "policy", "dist", "zoo steps", "cold steps", "zoo wall", "cold wall")
	var zooT, coldT int
	var zooW, coldW time.Duration
	hits := 0
	for _, c := range r.Cases {
		policy, dist := c.Policy, fmt.Sprintf("%.2f", c.Distance)
		if policy == "" {
			policy, dist = "-", "-"
		}
		fmt.Fprintf(&b, "%-4d %-12s %-7s %-16s %6s %10d %10d %12s %12s\n",
			c.Step, c.Delta, c.Outcome, policy, dist,
			c.ZooEnvSteps, c.ColdEnvSteps,
			c.ZooWall.Round(time.Millisecond), c.ColdWall.Round(time.Millisecond))
		coldT += c.ColdEnvSteps
		coldW += c.ColdWall
		if c.Outcome == "zoo" {
			hits++
			zooT += c.ZooEnvSteps
			zooW += c.ZooWall
			continue
		}
		// A miss or reject pays the fast-path probe and then trains anyway.
		zooT += c.ZooEnvSteps + c.ColdEnvSteps
		zooW += c.ZooWall + c.ColdWall
	}
	fmt.Fprintf(&b, "%-4s %-12s %-7s %-16s %6s %10d %10d %12s %12s\n", "sum", "", "", "", "",
		zooT, coldT, zooW.Round(time.Millisecond), coldW.Round(time.Millisecond))
	fmt.Fprintf(&b, "zoo hit rate %d/%d (%.0f%%)\n", hits, len(r.Cases), r.HitRate()*100)
	if coldT > 0 && hits > 0 {
		fmt.Fprintf(&b, "with the zoo, the trace cost %.0f%% of the env steps and %.0f%% of the wall time of always training\n",
			float64(zooT)/float64(coldT)*100, 100-wallSaved(coldW, zooW))
	}
	return b.String()
}
