// Package certify is an independent solution-certification audit for
// planned TSSDNs. Where the planner trusts its own failure analyzer
// (Algorithm 3), the certifier re-derives the reliability guarantee by
// independent means before a solution ships: it re-validates the structure
// from scratch, recomputes the Eq. 1 cost through the component-library
// API, re-runs the analyzer, cross-checks it against the exhaustive
// switch-and-link brute force on small instances (empirically exercising
// the §V switch-only-sufficiency proof), and drives seeded Monte Carlo
// fault-injection campaigns through the event simulator, asserting that
// every sampled failure scenario with probability >= R delivers all TT
// frames after NBF recovery. Counterexamples are delta-debugged to a
// smallest failing component set and reported in a machine-readable
// certificate.
package certify

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// Options bounds the audit effort.
type Options struct {
	// Samples is the number of Monte Carlo fault-injection trials
	// (default 256).
	Samples int
	// Seed drives the Monte Carlo sampling; campaigns are reproducible.
	Seed int64
	// MaxBruteComponents caps the component count (selected switches +
	// links) for the exhaustive brute-force cross-check; larger instances
	// skip it (default 14, ~16k subsets per order).
	MaxBruteComponents int
	// HorizonBasePeriods is the simulated duration per injection trial
	// (default 16 base periods).
	HorizonBasePeriods int
	// MaxSplitEvents is the most events a sampled scenario is split into,
	// exercising cumulative recovery (default 3).
	MaxSplitEvents int
	// AnalyzerWorkers bounds the audited analyzer's scenario worker pool
	// (<= 1 keeps it sequential). Ignored when Checker is set explicitly.
	AnalyzerWorkers int
}

func (o *Options) defaults() {
	if o.Samples == 0 {
		o.Samples = 256
	}
	if o.MaxBruteComponents == 0 {
		o.MaxBruteComponents = 14
	}
	if o.HorizonBasePeriods == 0 {
		o.HorizonBasePeriods = 16
	}
	if o.MaxSplitEvents == 0 {
		o.MaxSplitEvents = 3
	}
}

// ReliabilityChecker is the analyzer interface the certifier audits.
// *failure.Analyzer satisfies it; tests inject deliberately broken
// implementations to prove the cross-checks catch them.
type ReliabilityChecker interface {
	AnalyzeContext(ctx context.Context, gt *graph.Graph, assign *asil.Assignment, fs tsn.FlowSet) (failure.Result, error)
}

// Certifier audits one (problem, solution) pair.
type Certifier struct {
	Prob *core.Problem
	Sol  *core.Solution
	Opt  Options
	// Checker overrides the audited analyzer (nil = a fresh
	// failure.Analyzer built from the problem). The brute-force and Monte
	// Carlo stages cross-check whatever is plugged in here.
	Checker ReliabilityChecker

	nbfCalls int // recovery simulations across all audit stages
}

// component is a failable unit of the planned network: a selected switch
// or a built link.
type component struct {
	isLink bool
	node   int
	edge   graph.Edge // canonical, zero length
	prob   float64
}

func (c component) String() string {
	if c.isLink {
		return fmt.Sprintf("link(%d,%d)", c.edge.U, c.edge.V)
	}
	return fmt.Sprintf("node(%d)", c.node)
}

// Certify runs the full audit. A non-nil error means the audit itself
// could not run (invalid inputs, cancellation); guarantee violations are
// reported through the certificate's verdict and counterexamples instead.
func (c *Certifier) Certify(ctx context.Context) (*Certificate, error) {
	start := time.Now()
	c.Opt.defaults()
	if c.Prob == nil || c.Sol == nil {
		return nil, fmt.Errorf("certify: nil problem or solution")
	}
	if err := c.Prob.Validate(); err != nil {
		return nil, fmt.Errorf("certify: %w", err)
	}
	if c.Sol.Topology == nil || c.Sol.Assignment == nil {
		return nil, fmt.Errorf("certify: solution has no topology or assignment")
	}
	cert := &Certificate{
		Version: CertificateVersion,
		Seed:    c.Opt.Seed,
		Samples: c.Opt.Samples,
	}
	c.nbfCalls = 0

	// 1. Structure: re-derived from the problem spec, not from
	// core.TSSDN's own invariant checker.
	cert.addCheck("structure", c.checkStructure())
	// 2. Cost: independent Eq. 1 aggregation over the library API.
	cert.addCheck("cost", c.checkCost())
	// 3. Fault-free schedule: FI0 exists for all pairs and meets deadlines.
	cert.addCheck("schedule", c.checkSchedule(ctx))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// A structurally broken solution would make the reliability stages
	// report nonsense (e.g. links without ASIL); stop here if so.
	if cert.failed("structure") {
		cert.NBFCalls = c.nbfCalls
		cert.finish(start)
		return cert, nil
	}

	// 4. Analyzer re-run (Algorithm 3, or the injected checker under audit).
	analyzerOK, err := c.checkAnalyzer(ctx, cert)
	if err != nil {
		return nil, err
	}
	// 5. Brute-force cross-check over switches AND links.
	if err := c.checkBruteForce(ctx, cert, analyzerOK); err != nil {
		return nil, err
	}
	// 6. Monte Carlo fault injection through the event simulator.
	if err := c.runMonteCarlo(ctx, cert); err != nil {
		return nil, err
	}

	cert.NBFCalls = c.nbfCalls
	cert.finish(start)
	return cert, nil
}

// checker returns the analyzer under audit.
func (c *Certifier) checker() ReliabilityChecker {
	if c.Checker != nil {
		return c.Checker
	}
	return &failure.Analyzer{
		Lib:                 c.Prob.Library,
		NBF:                 c.Prob.NBF,
		Net:                 c.Prob.Net,
		R:                   c.Prob.ReliabilityGoal,
		FlowLevelRedundancy: c.Prob.FlowLevelRedundancy,
		ESLevel:             c.Prob.ESLevel,
		Workers:             c.Opt.AnalyzerWorkers,
	}
}

// vertexLevel is the effective ASIL of a vertex for the link-minimum rule.
func (c *Certifier) vertexLevel(v int) asil.Level {
	if c.Prob.Connections.Kind(v) == graph.KindEndStation {
		return c.Prob.ESLevel
	}
	return c.Sol.Assignment.SwitchLevel(v)
}

// checkStructure re-validates the solution against the problem spec from
// first principles: vertex sets match, the topology is a subgraph of Gc
// with the specified cable lengths, degree constraints hold, the ASIL
// assignment is complete and valid, and every link honors the
// ASIL = min(endpoints) rule of §IV-B.
func (c *Certifier) checkStructure() Check {
	gc := c.Prob.Connections
	gt := c.Sol.Topology
	if gt.NumVertices() != gc.NumVertices() {
		return failCheck("topology has %d vertices, connection graph has %d", gt.NumVertices(), gc.NumVertices())
	}
	for v := 0; v < gc.NumVertices(); v++ {
		if gt.Kind(v) != gc.Kind(v) {
			return failCheck("vertex %d kind %v in topology, %v in connection graph", v, gt.Kind(v), gc.Kind(v))
		}
	}
	for _, e := range gt.Edges() {
		if gc.Kind(e.U) == graph.KindEndStation && gc.Kind(e.V) == graph.KindEndStation {
			return failCheck("direct ES-ES link (%d,%d)", e.U, e.V)
		}
		want, ok := gc.EdgeLength(e.U, e.V)
		if !ok {
			return failCheck("link (%d,%d) is not in the connection graph", e.U, e.V)
		}
		if e.Length != want {
			return failCheck("link (%d,%d) length %v, connection graph says %v", e.U, e.V, e.Length, want)
		}
		lvl := c.Sol.Assignment.LinkLevel(e.U, e.V)
		if !lvl.Valid() {
			return failCheck("link (%d,%d) has no valid ASIL", e.U, e.V)
		}
		if want := asil.Min(c.vertexLevel(e.U), c.vertexLevel(e.V)); lvl != want {
			return failCheck("link (%d,%d) ASIL %s, min-endpoint rule requires %s", e.U, e.V, lvl, want)
		}
	}
	for sw, lvl := range c.Sol.Assignment.Switches {
		if gc.Kind(sw) != graph.KindSwitch {
			return failCheck("assigned vertex %d is not an optional switch", sw)
		}
		if !lvl.Valid() {
			return failCheck("switch %d has invalid ASIL %d", sw, int(lvl))
		}
	}
	for _, sw := range gc.VerticesOfKind(graph.KindSwitch) {
		deg := gt.Degree(sw)
		if deg > 0 {
			if _, selected := c.Sol.Assignment.Switches[sw]; !selected {
				return failCheck("switch %d has %d links but no ASIL assignment", sw, deg)
			}
		}
		if deg > c.Prob.Library.MaxSwitchDegree() {
			return failCheck("switch %d uses %d ports, library maximum is %d", sw, deg, c.Prob.Library.MaxSwitchDegree())
		}
	}
	for _, es := range gc.VerticesOfKind(graph.KindEndStation) {
		if deg := gt.Degree(es); deg > c.Prob.MaxESDegree {
			return failCheck("end station %d has degree %d, limit is %d", es, deg, c.Prob.MaxESDegree)
		}
	}
	return passCheck("%d vertices, %d links, %d switches validated against the spec",
		gt.NumVertices(), gt.NumEdges(), len(c.Sol.Assignment.Switches))
}

// checkCost recomputes Eq. 1 by aggregating per-component library prices
// itself instead of calling asil.NetworkCost, so a bug in the planner's
// aggregation cannot certify its own output.
func (c *Certifier) checkCost() Check {
	var total float64
	for sw, lvl := range c.Sol.Assignment.Switches {
		cost, err := c.Prob.Library.SwitchCost(lvl, c.Sol.Topology.Degree(sw))
		if err != nil {
			return failCheck("switch %d: %v", sw, err)
		}
		total += cost
	}
	for _, e := range c.Sol.Topology.Edges() {
		cost, err := c.Prob.Library.LinkCost(c.Sol.Assignment.LinkLevel(e.U, e.V), e.Length)
		if err != nil {
			return failCheck("link (%d,%d): %v", e.U, e.V, err)
		}
		total += cost
	}
	if c.Sol.Cost != 0 && math.Abs(total-c.Sol.Cost) > 1e-6*math.Max(1, math.Abs(total)) {
		return failCheck("recorded cost %v, independent recomputation gives %v", c.Sol.Cost, total)
	}
	return passCheck("cost %.4f recomputed independently", total)
}

// checkSchedule verifies the fault-free configuration FI0: every demanded
// pair gets a plan and every plan meets its deadline.
func (c *Certifier) checkSchedule(ctx context.Context) Check {
	if err := ctx.Err(); err != nil {
		return skipCheck("cancelled")
	}
	fi0, er, err := c.Prob.NBF.Recover(c.Sol.Topology, nbf.Failure{}, c.Prob.Net, c.Prob.Flows)
	c.nbfCalls++
	if err != nil {
		return failCheck("NBF rejected the fault-free topology: %v", err)
	}
	if len(er) > 0 {
		return failCheck("no fault-free schedule for pairs %v", er)
	}
	lats, err := tsn.Latencies(c.Prob.Net, c.Prob.Flows, fi0)
	if err != nil {
		return failCheck("latency audit: %v", err)
	}
	if slack, ok := tsn.MinSlack(lats); ok && slack < 0 {
		return failCheck("schedule violates a deadline by %v", -slack)
	}
	return passCheck("FI0 schedules all %d pairs within their deadlines", len(lats))
}

// checkAnalyzer re-runs the reliability analysis and reports its verdict.
// It returns whether the analyzer declared the guarantee established.
func (c *Certifier) checkAnalyzer(ctx context.Context, cert *Certificate) (bool, error) {
	res, err := c.checker().AnalyzeContext(ctx, c.Sol.Topology, c.Sol.Assignment, c.Prob.Flows)
	if err != nil {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		cert.addCheck("analyzer", failCheck("analysis failed: %v", err))
		return false, nil
	}
	c.nbfCalls += res.NBFCalls
	if !res.OK {
		cx, err := c.counterexampleFromNodes(ctx, res.Failure.Nodes, "analyzer")
		if err != nil {
			return false, err
		}
		cert.Counterexamples = append(cert.Counterexamples, cx)
		cert.addCheck("analyzer", failCheck("reliability goal violated by %v", res.Failure))
		return false, nil
	}
	cert.addCheck("analyzer", passCheck("guarantee established (max order %d, %d NBF calls)", res.MaxOrder, res.NBFCalls))
	return true, nil
}

// checkBruteForce exhaustively enumerates non-safe faults over switches
// AND links on small instances and cross-checks the verdict against the
// analyzer. Agreement on failure keeps the certificate's analyzer finding;
// disagreement in either direction is its own failure — the audit's main
// defense against a silently broken analyzer.
func (c *Certifier) checkBruteForce(ctx context.Context, cert *Certificate, analyzerOK bool) error {
	comps := c.components()
	if len(comps) > c.Opt.MaxBruteComponents {
		cert.addCheck("brute-force", skipCheck("%d components exceed the cap %d", len(comps), c.Opt.MaxBruteComponents))
		return nil
	}
	bf := &failure.BruteForce{
		Lib: c.Prob.Library,
		NBF: c.Prob.NBF,
		Net: c.Prob.Net,
		R:   c.Prob.ReliabilityGoal,
	}
	res, err := bf.AnalyzeContext(ctx, c.Sol.Topology, c.Sol.Assignment, c.Prob.Flows)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cert.addCheck("brute-force", failCheck("brute force failed: %v", err))
		return nil
	}
	c.nbfCalls += res.NBFCalls
	switch {
	case res.OK && analyzerOK:
		cert.addCheck("brute-force", passCheck("verdicts agree: guarantee holds over %d switch+link components (%d NBF calls)", len(comps), res.NBFCalls))
	case !res.OK && !analyzerOK:
		cert.addCheck("brute-force", passCheck("verdicts agree: both found the guarantee violated"))
	case !res.OK && analyzerOK:
		cx, cerr := c.counterexampleFromSet(ctx, c.componentsOf(res.Failure), "brute-force")
		if cerr != nil {
			return cerr
		}
		cert.Counterexamples = append(cert.Counterexamples, cx)
		cert.addCheck("brute-force", failCheck("ANALYZER DISAGREEMENT: analyzer certified the guarantee but exhaustive enumeration found non-safe fault %v unrecoverable", res.Failure))
	default: // res.OK && !analyzerOK
		cert.addCheck("brute-force", failCheck("ANALYZER DISAGREEMENT: analyzer reported a violation but exhaustive enumeration found every non-safe fault recoverable"))
	}
	return nil
}

// components lists the failable units of the planned network: selected
// switches and built links with their ASIL failure probabilities, sorted
// by decreasing probability (ties: nodes before links, then by ID).
func (c *Certifier) components() []component {
	var comps []component
	for _, sw := range c.Sol.Topology.VerticesOfKind(graph.KindSwitch) {
		lvl, ok := c.Sol.Assignment.Switches[sw]
		if !ok {
			continue
		}
		comps = append(comps, component{node: sw, prob: c.Prob.Library.FailureProb(lvl)})
	}
	for _, e := range c.Sol.Topology.Edges() {
		ce := e.Canonical()
		ce.Length = 0
		comps = append(comps, component{isLink: true, edge: ce, prob: c.Prob.Library.FailureProb(c.Sol.Assignment.LinkLevel(e.U, e.V))})
	}
	sort.Slice(comps, func(i, j int) bool {
		a, b := comps[i], comps[j]
		if a.prob != b.prob {
			return a.prob > b.prob
		}
		if a.isLink != b.isLink {
			return !a.isLink
		}
		if !a.isLink {
			return a.node < b.node
		}
		if a.edge.U != b.edge.U {
			return a.edge.U < b.edge.U
		}
		return a.edge.V < b.edge.V
	})
	return comps
}

func failCheck(format string, args ...interface{}) Check {
	return Check{Status: StatusFail, Detail: fmt.Sprintf(format, args...)}
}

func passCheck(format string, args ...interface{}) Check {
	return Check{Status: StatusPass, Detail: fmt.Sprintf(format, args...)}
}

func skipCheck(format string, args ...interface{}) Check {
	return Check{Status: StatusSkipped, Detail: fmt.Sprintf(format, args...)}
}
