// Package asil models ISO 26262 Automotive Safety Integrity Levels, the
// TSSDN component library of the paper (Table I), the network cost function
// (Eq. 1) and the failure-scenario probability (Eq. 2).
package asil

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// failureProbOverHorizon converts a per-hour failure rate into a failure
// probability over the given horizon assuming exponentially distributed
// failures: 1 − e^{−rate·hours}.
func failureProbOverHorizon(ratePerHour, hours float64) float64 {
	return 1 - math.Exp(-ratePerHour*hours)
}

// Level is an ISO 26262 Automotive Safety Integrity Level. Levels are
// ordered: A is the least and D the most critical.
type Level int

// ASIL levels per ISO 26262. The zero value means "unassigned" so that
// component maps distinguish missing components from ASIL-A ones.
const (
	LevelA Level = iota + 1
	LevelB
	LevelC
	LevelD
)

// Levels lists all ASIL levels from least to most critical.
func Levels() []Level { return []Level{LevelA, LevelB, LevelC, LevelD} }

// String returns the standard ASIL letter.
func (l Level) String() string {
	switch l {
	case LevelA:
		return "A"
	case LevelB:
		return "B"
	case LevelC:
		return "C"
	case LevelD:
		return "D"
	default:
		return fmt.Sprintf("ASIL(%d)", int(l))
	}
}

// Valid reports whether l is one of ASIL A-D.
func (l Level) Valid() bool { return l >= LevelA && l <= LevelD }

// Next returns the next more critical level and whether an upgrade was
// possible (ASIL-D cannot be upgraded, per the switch-upgrade action rules
// of §IV-B).
func (l Level) Next() (Level, bool) {
	if !l.Valid() || l == LevelD {
		return l, false
	}
	return l + 1, true
}

// Min returns the less critical of two levels, treating unassigned (0) as
// less critical than everything. It implements the link-ASIL invariant of
// §IV-B: the ASIL of every link equals the lowest ASIL of its endpoints.
func Min(a, b Level) Level {
	if a < b {
		return a
	}
	return b
}

// Library is a TSSDN component library: switch costs per (port count,
// ASIL), link cost per unit length per ASIL, and failure probabilities per
// ASIL. Construct one with NewLibrary or use DefaultLibrary (Table I).
type Library struct {
	portOptions []int
	switchCost  map[Level]map[int]float64
	linkPerUnit map[Level]float64
	failProb    map[Level]float64
}

// LibraryConfig describes a component library for NewLibrary.
type LibraryConfig struct {
	// PortOptions are the available switch sizes in ascending order,
	// e.g. 4, 6, 8 external ports.
	PortOptions []int
	// SwitchCost maps ASIL level and port count to switch cost.
	SwitchCost map[Level]map[int]float64
	// LinkCostPerUnit maps ASIL level to link cost per unit cable length.
	LinkCostPerUnit map[Level]float64
	// FailureProb maps ASIL level to per-component failure probability over
	// the analysis horizon.
	FailureProb map[Level]float64
}

// NewLibrary validates cfg and builds a Library.
func NewLibrary(cfg LibraryConfig) (*Library, error) {
	if len(cfg.PortOptions) == 0 {
		return nil, fmt.Errorf("library: no port options")
	}
	for i := 1; i < len(cfg.PortOptions); i++ {
		if cfg.PortOptions[i] <= cfg.PortOptions[i-1] {
			return nil, fmt.Errorf("library: port options must be strictly ascending, got %v", cfg.PortOptions)
		}
	}
	lib := &Library{
		portOptions: append([]int(nil), cfg.PortOptions...),
		switchCost:  make(map[Level]map[int]float64, len(Levels())),
		linkPerUnit: make(map[Level]float64, len(Levels())),
		failProb:    make(map[Level]float64, len(Levels())),
	}
	for _, lvl := range Levels() {
		costs, ok := cfg.SwitchCost[lvl]
		if !ok {
			return nil, fmt.Errorf("library: missing switch costs for ASIL-%s", lvl)
		}
		row := make(map[int]float64, len(lib.portOptions))
		for _, p := range lib.portOptions {
			c, ok := costs[p]
			if !ok {
				return nil, fmt.Errorf("library: missing %d-port switch cost for ASIL-%s", p, lvl)
			}
			if c <= 0 {
				return nil, fmt.Errorf("library: non-positive switch cost for ASIL-%s %d-port", lvl, p)
			}
			row[p] = c
		}
		lib.switchCost[lvl] = row

		lc, ok := cfg.LinkCostPerUnit[lvl]
		if !ok || lc <= 0 {
			return nil, fmt.Errorf("library: missing or non-positive link cost for ASIL-%s", lvl)
		}
		lib.linkPerUnit[lvl] = lc

		fp, ok := cfg.FailureProb[lvl]
		if !ok || fp <= 0 || fp >= 1 {
			return nil, fmt.Errorf("library: failure probability for ASIL-%s must be in (0,1)", lvl)
		}
		lib.failProb[lvl] = fp
	}
	// Higher ASIL must not fail more often.
	for i := 1; i < len(Levels()); i++ {
		lo, hi := Levels()[i-1], Levels()[i]
		if lib.failProb[hi] > lib.failProb[lo] {
			return nil, fmt.Errorf("library: ASIL-%s fails more often than ASIL-%s", hi, lo)
		}
	}
	return lib, nil
}

// DefaultLibrary returns the component library of Table I: ASIL-A switches
// cost 8/10/16 for 4/6/8 ports, each ASIL step multiplies switch cost by
// 1.5x and link cost by 2x, and the failure probability for ASIL A-D is
// ≈1e-3 .. ≈1e-6: exponentially distributed failures over 1000 working
// hours at the ISO 26262 failure rates, i.e. 1 − e^{−λ·1000} (§VI-A).
// The exact value matters: 1 − e^{−1e-9·1000} is slightly BELOW 1e-6, which
// is what lets a single ASIL-D device function without a backup at
// R = 1e-6 (the paper's choice of R for exactly this reason).
func DefaultLibrary() *Library {
	lib, err := NewLibrary(LibraryConfig{
		PortOptions: []int{4, 6, 8},
		SwitchCost: map[Level]map[int]float64{
			LevelA: {4: 8, 6: 10, 8: 16},
			LevelB: {4: 12, 6: 15, 8: 24},
			LevelC: {4: 18, 6: 22, 8: 36},
			LevelD: {4: 27, 6: 33, 8: 54},
		},
		LinkCostPerUnit: map[Level]float64{
			LevelA: 1, LevelB: 2, LevelC: 4, LevelD: 8,
		},
		FailureProb: map[Level]float64{
			LevelA: failureProbOverHorizon(1e-6, 1000),
			LevelB: failureProbOverHorizon(1e-7, 1000),
			LevelC: failureProbOverHorizon(1e-8, 1000),
			LevelD: failureProbOverHorizon(1e-9, 1000),
		},
	})
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return lib
}

// MaxSwitchDegree returns the largest available switch port count, which is
// the degree constraint enforced by the SOAG masks.
func (l *Library) MaxSwitchDegree() int {
	return l.portOptions[len(l.portOptions)-1]
}

// PortOptions returns the available switch sizes in ascending order.
func (l *Library) PortOptions() []int {
	return append([]int(nil), l.portOptions...)
}

// SwitchCost returns csw(deg, ASIL): the cost of the cheapest library
// switch with at least deg ports at the given ASIL. A degree of zero still
// prices the smallest switch (a selected switch occupies a physical unit).
func (l *Library) SwitchCost(level Level, degree int) (float64, error) {
	if !level.Valid() {
		return 0, fmt.Errorf("switch cost: invalid ASIL %d", int(level))
	}
	if degree > l.MaxSwitchDegree() {
		return 0, fmt.Errorf("switch cost: degree %d exceeds max %d ports", degree, l.MaxSwitchDegree())
	}
	for _, p := range l.portOptions {
		if p >= degree {
			return l.switchCost[level][p], nil
		}
	}
	return 0, fmt.Errorf("switch cost: no switch with %d ports", degree)
}

// LinkCost returns clk(ASIL, length).
func (l *Library) LinkCost(level Level, length float64) (float64, error) {
	if !level.Valid() {
		return 0, fmt.Errorf("link cost: invalid ASIL %d", int(level))
	}
	if length < 0 {
		return 0, fmt.Errorf("link cost: negative length %v", length)
	}
	return l.linkPerUnit[level] * length, nil
}

// FailureProb returns cfp(ASIL), the component failure probability.
func (l *Library) FailureProb(level Level) float64 {
	return l.failProb[level]
}

// Assignment records the ASIL allocated to the switches and links of a
// topology. Switch keys are vertex IDs; link keys are canonical edges.
type Assignment struct {
	Switches map[int]Level
	Links    map[graph.Edge]Level
}

// NewAssignment returns an empty assignment.
func NewAssignment() *Assignment {
	return &Assignment{
		Switches: make(map[int]Level),
		Links:    make(map[graph.Edge]Level),
	}
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		Switches: make(map[int]Level, len(a.Switches)),
		Links:    make(map[graph.Edge]Level, len(a.Links)),
	}
	for k, v := range a.Switches {
		c.Switches[k] = v
	}
	for k, v := range a.Links {
		c.Links[k] = v
	}
	return c
}

// SwitchLevel returns the ASIL of switch id (0 if unassigned).
func (a *Assignment) SwitchLevel(id int) Level { return a.Switches[id] }

// LinkLevel returns the ASIL of the link (u, v) (0 if unassigned).
func (a *Assignment) LinkLevel(u, v int) Level {
	return a.Links[graph.Edge{U: u, V: v}.Canonical()]
}

// SetLink assigns a level to link (u, v) in canonical form. The length of
// the edge key is normalized to zero so lookups are length-independent.
func (a *Assignment) SetLink(u, v int, l Level) {
	e := graph.Edge{U: u, V: v}.Canonical()
	e.Length = 0
	a.Links[e] = l
}

// NetworkCost computes Eq. 1: the sum of switch costs
// csw(deg(v), ASIL_v) over selected switches plus link costs
// clk(ASIL_uv, len(u,v)) over selected links. End stations cost nothing.
// Every switch with an assignment or a nonzero degree must have a valid
// ASIL, and so must every edge of gt.
func NetworkCost(gt *graph.Graph, assign *Assignment, lib *Library) (float64, error) {
	var total float64
	for _, sw := range gt.VerticesOfKind(graph.KindSwitch) {
		lvl, selected := assign.Switches[sw]
		if !selected {
			if gt.Degree(sw) > 0 {
				return 0, fmt.Errorf("network cost: switch %d has edges but no ASIL", sw)
			}
			continue
		}
		c, err := lib.SwitchCost(lvl, gt.Degree(sw))
		if err != nil {
			return 0, fmt.Errorf("network cost: switch %d: %w", sw, err)
		}
		total += c
	}
	for _, e := range gt.Edges() {
		lvl := assign.LinkLevel(e.U, e.V)
		if !lvl.Valid() {
			return 0, fmt.Errorf("network cost: link (%d,%d) has no ASIL", e.U, e.V)
		}
		c, err := lib.LinkCost(lvl, e.Length)
		if err != nil {
			return 0, fmt.Errorf("network cost: link (%d,%d): %w", e.U, e.V, err)
		}
		total += c
	}
	return total, nil
}

// FailureProbability computes Eq. 2: the probability of the failure
// scenario consisting of failedNodes and failedEdges, as the product of the
// individual component failure probabilities.
func FailureProbability(assign *Assignment, lib *Library, failedNodes []int, failedEdges []graph.Edge) (float64, error) {
	p := 1.0
	for _, v := range failedNodes {
		lvl, ok := assign.Switches[v]
		if !ok {
			return 0, fmt.Errorf("failure probability: node %d has no ASIL", v)
		}
		p *= lib.FailureProb(lvl)
	}
	for _, e := range failedEdges {
		lvl := assign.LinkLevel(e.U, e.V)
		if !lvl.Valid() {
			return 0, fmt.Errorf("failure probability: link (%d,%d) has no ASIL", e.U, e.V)
		}
		p *= lib.FailureProb(lvl)
	}
	return p, nil
}

// DecompositionPairs returns the ASIL decomposition options of ISO 26262
// for a goal level: the pairs of (redundant) levels that jointly satisfy
// it. It is used by the TRH baseline to justify two ASIL-B FRER paths
// standing in for an ASIL-D requirement.
func DecompositionPairs(goal Level) [][2]Level {
	switch goal {
	case LevelD:
		return [][2]Level{{LevelD, 0}, {LevelC, LevelA}, {LevelB, LevelB}}
	case LevelC:
		return [][2]Level{{LevelC, 0}, {LevelB, LevelA}, {LevelA, LevelB}}
	case LevelB:
		return [][2]Level{{LevelB, 0}, {LevelA, LevelA}}
	case LevelA:
		return [][2]Level{{LevelA, 0}}
	default:
		return nil
	}
}

// DecompositionSatisfies reports whether two independent channels at levels
// a and b satisfy the goal level under ASIL decomposition. A single channel
// (b == 0) must meet the goal directly.
func DecompositionSatisfies(goal, a, b Level) bool {
	if b == 0 {
		return a >= goal
	}
	if a < b {
		a, b = b, a
	}
	for _, pair := range DecompositionPairs(goal) {
		pa, pb := pair[0], pair[1]
		if pa < pb {
			pa, pb = pb, pa
		}
		if pb == 0 {
			continue
		}
		if a >= pa && b >= pb {
			return true
		}
	}
	return false
}
