package certify

import (
	"context"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/tsn"

	crng "repro/internal/rng"
)

// runMonteCarlo drives the seeded fault-injection campaign: it samples
// component-failure scenarios by their ASIL failure probabilities, injects
// every distinct non-safe one (probability >= R) into the event simulator —
// split across up to MaxSplitEvents staggered events to exercise cumulative
// recovery — and asserts that each one delivers all TT frames once NBF
// recovery takes effect. The first failing scenario is minimized and
// recorded as a counterexample.
func (c *Certifier) runMonteCarlo(ctx context.Context, cert *Certificate) error {
	comps := c.components()

	// maxord over switch AND link components (cf. Algorithm 3 line 2).
	maxOrd := 0
	p := 1.0
	for _, comp := range comps {
		p *= comp.prob
		if p < c.Prob.ReliabilityGoal {
			break
		}
		maxOrd++
	}

	if mass, ok := c.enumerateNonSafeMass(comps); ok {
		cert.TotalNonSafeMass = mass
	}

	if maxOrd == 0 {
		cert.addCheck("monte-carlo", passCheck("no non-safe failure scenario involves any component (max order 0)"))
		return nil
	}

	rng := rand.New(crng.New(c.Opt.Seed))
	seen := make(map[string]bool)
	for trial := 0; trial < c.Opt.Samples; trial++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cert.ScenariosChecked++
		set := sampleSubset(comps, 1+rng.Intn(maxOrd), rng)
		if probOf(set) < c.Prob.ReliabilityGoal {
			continue // safe fault: need not be survivable
		}
		key := keyOf(set)
		if seen[key] {
			continue
		}
		seen[key] = true
		cert.DistinctScenarios++
		cert.CoverageMass += probOf(set)

		failingPrefix, er, err := c.inject(ctx, set, rng)
		if err != nil {
			return err
		}
		if failingPrefix != nil {
			cx, cerr := c.counterexampleFromSet(ctx, failingPrefix, "monte-carlo")
			if cerr != nil {
				return cerr
			}
			cert.Counterexamples = append(cert.Counterexamples, cx)
			cert.addCheck("monte-carlo", failCheck(
				"injected non-safe scenario %v left pairs %v undelivered after recovery (trial %d)",
				failureOf(failingPrefix), er, trial))
			return nil
		}
	}
	cert.addCheck("monte-carlo", passCheck("%d distinct non-safe scenarios injected and survived (%d trials, max order %d)",
		cert.DistinctScenarios, cert.ScenariosChecked, maxOrd))
	return nil
}

// sampleSubset draws k distinct components uniformly (partial
// Fisher-Yates over a scratch index slice), returning them in the
// deterministic components() order so scenario keys are canonical.
func sampleSubset(comps []component, k int, rng *rand.Rand) []component {
	idx := make([]int, len(comps))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	picked := append([]int(nil), idx[:k]...)
	// Restore canonical order.
	for i := 1; i < len(picked); i++ {
		for j := i; j > 0 && picked[j] < picked[j-1]; j-- {
			picked[j], picked[j-1] = picked[j-1], picked[j]
		}
	}
	set := make([]component, k)
	for i, ix := range picked {
		set[i] = comps[ix]
	}
	return set
}

// inject plays one scenario through the slot-accurate simulator. The set
// is split into staggered failure events in the first half of the horizon;
// controller latency is one base period each for detection and
// reconfiguration (the simulator default). It returns the failing
// cumulative prefix (nil when the network survives) and the pairs that
// prefix leaves unrecovered or undelivered.
func (c *Certifier) inject(ctx context.Context, set []component, rng *rand.Rand) ([]component, []tsn.Pair, error) {
	numEvents := 1
	if max := c.Opt.MaxSplitEvents; max > 1 && len(set) > 1 {
		if max > len(set) {
			max = len(set)
		}
		numEvents = 1 + rng.Intn(max)
	}
	// Random ascending injection slots in the first half of the horizon,
	// leaving the second half to observe the final configuration in steady
	// state.
	half := c.Opt.HorizonBasePeriods * c.Prob.Net.SlotsPerBase / 2
	if half < 1 {
		half = 1
	}
	slots := make([]int, numEvents)
	for i := range slots {
		slots[i] = rng.Intn(half)
	}
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0 && slots[j] < slots[j-1]; j-- {
			slots[j], slots[j-1] = slots[j-1], slots[j]
		}
	}
	// Deal components to events: the first numEvents components seed one
	// event each (no empty events), the rest go to random events.
	groups := make([][]component, numEvents)
	perm := rng.Perm(len(set))
	for i, pi := range perm {
		g := i
		if i >= numEvents {
			g = rng.Intn(numEvents)
		}
		groups[g] = append(groups[g], set[pi])
	}
	events := make([]sim.Event, numEvents)
	for i, g := range groups {
		events[i] = sim.Event{Slot: slots[i], Failure: failureOf(g)}
	}

	s := &sim.Simulator{
		Topo:  c.Sol.Topology,
		Net:   c.Prob.Net,
		Flows: c.Prob.Flows,
		NBF:   c.Prob.NBF,
		Cfg:   sim.DefaultConfig(c.Prob.Net),
	}
	s.Cfg.HorizonBasePeriods = c.Opt.HorizonBasePeriods
	res, err := s.RunContext(ctx, events)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	c.nbfCalls += res.NBFCalls

	// Every cumulative prefix of a non-safe scenario is itself non-safe
	// (dropping factors only raises the probability), so each intermediate
	// recovery must succeed too.
	for i, rec := range res.Recoveries {
		if !rec.Recovered {
			var prefix []component
			for _, g := range groups[:i+1] {
				prefix = append(prefix, g...)
			}
			return canonicalize(prefix), rec.UnrecoveredPairs, nil
		}
	}
	if res.SteadyStateLost > 0 {
		// The final configuration claimed recovery but still lost frames:
		// report the full set with the ghost pairs the static re-check finds.
		_, ghost, err := c.scenarioFails(ctx, set)
		if err != nil {
			return nil, nil, err
		}
		return set, ghost, nil
	}
	return nil, nil, nil
}

// canonicalize sorts a component set into the deterministic order used by
// keys and reports (nodes before links at equal probability, then by ID).
func canonicalize(set []component) []component {
	out := append([]component(nil), set...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && componentLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func componentLess(a, b component) bool {
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
}

// maxEnumScenarios caps the exhaustive non-safe-scenario enumeration
// behind the coverage figure's total probability mass.
const maxEnumScenarios = 200000

// enumerateNonSafeMass exhaustively sums the Eq. 2 probability of every
// nonempty component subset with probability >= R, pruning on the sorted
// probabilities. It reports ok=false when the subset count exceeds
// maxEnumScenarios (total mass then stays unknown on the certificate).
func (c *Certifier) enumerateNonSafeMass(comps []component) (float64, bool) {
	var mass float64
	count := 0
	var dfs func(start int, product float64) bool
	dfs = func(start int, product float64) bool {
		for i := start; i < len(comps); i++ {
			p := product * comps[i].prob
			if p < c.Prob.ReliabilityGoal {
				return true // sorted descending: no later component helps
			}
			count++
			if count > maxEnumScenarios {
				return false
			}
			mass += p
			if !dfs(i+1, p) {
				return false
			}
		}
		return true
	}
	if !dfs(0, 1.0) {
		return 0, false
	}
	return mass, true
}
