package tsn

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// DirLink is one direction of a full-duplex link. TT slot reservations are
// per direction: both directions of a physical link can carry one frame per
// slot.
type DirLink struct {
	From, To int
}

// FlowPlan is the scheduled state of one (flow, destination) pair: the path
// and the transmission slot, relative to the flow's release instant, on
// each hop.
type FlowPlan struct {
	FlowID int
	Dst    int
	Path   graph.Path
	// Slots[i] is the transmission slot of hop Path[i] -> Path[i+1].
	Slots []int
}

// ArrivalSlot returns the slot in which the frame arrives at the
// destination, or -1 for an empty plan.
func (p FlowPlan) ArrivalSlot() int {
	if len(p.Slots) == 0 {
		return -1
	}
	return p.Slots[len(p.Slots)-1]
}

// State is the flow state FI of a TSSDN: a plan per (flow, destination)
// pair, together with the timing configuration it was computed for.
type State struct {
	Net   Network
	Plans []FlowPlan
}

// PlanFor returns the plan of (flowID, dst) and whether it exists.
func (s *State) PlanFor(flowID, dst int) (FlowPlan, bool) {
	for _, p := range s.Plans {
		if p.FlowID == flowID && p.Dst == dst {
			return p, true
		}
	}
	return FlowPlan{}, false
}

// slotTable tracks per-directed-link slot occupancy over the hyperperiod.
type slotTable struct {
	hyper int
	occ   map[DirLink][]bool
}

func newSlotTable(hyper int) *slotTable {
	return &slotTable{hyper: hyper, occ: make(map[DirLink][]bool)}
}

// slotTablePool recycles slot tables across Schedule calls: every NBF
// recovery simulation builds a schedule, so without the pool each
// simulation allocates a fresh map plus one row per touched link.
var slotTablePool = sync.Pool{New: func() any { return newSlotTable(0) }}

// acquireSlotTable returns a cleared slot table for the given hyperperiod.
// Rows of a matching length are zeroed in place and reused; rows sized for
// a different hyperperiod are dropped.
func acquireSlotTable(hyper int) *slotTable {
	st := slotTablePool.Get().(*slotTable)
	st.hyper = hyper
	for l, row := range st.occ {
		if len(row) != hyper {
			delete(st.occ, l)
			continue
		}
		for i := range row {
			row[i] = false
		}
	}
	return st
}

// releaseSlotTable returns a table to the pool. The caller must not touch
// it afterwards.
func releaseSlotTable(st *slotTable) { slotTablePool.Put(st) }

// conflictFree reports whether transmitting at relative slot `slot` with
// the given period (in slots) is free on link l for every repetition within
// the hyperperiod.
func (st *slotTable) conflictFree(l DirLink, slot, periodSlots int) bool {
	row, ok := st.occ[l]
	if !ok {
		return true
	}
	for abs := slot; abs < st.hyper; abs += periodSlots {
		if row[abs%st.hyper] {
			return false
		}
	}
	return true
}

func (st *slotTable) reserve(l DirLink, slot, periodSlots int) {
	row, ok := st.occ[l]
	if !ok {
		row = make([]bool, st.hyper)
		st.occ[l] = row
	}
	for abs := slot; abs < st.hyper; abs += periodSlots {
		row[abs%st.hyper] = true
	}
}

func (st *slotTable) release(l DirLink, slot, periodSlots int) {
	row, ok := st.occ[l]
	if !ok {
		return
	}
	for abs := slot; abs < st.hyper; abs += periodSlots {
		row[abs%st.hyper] = false
	}
}

// Scheduler computes TT schedules: it routes every (flow, destination) pair
// over the topology and reserves strictly increasing time slots hop by hop
// (store-and-forward, one slot of forwarding delay per hop), subject to the
// per-directed-link exclusivity of TAS gating and each flow's deadline.
//
// The zero value is ready to use. Routing is shortest-path by cable length
// with deterministic tie-breaking, so the scheduler is a deterministic
// function of (topology, network, flows) — the property §II-B requires from
// a stateless NBF.
type Scheduler struct {
	// MaxAlternatives bounds how many alternative paths (Yen) are tried per
	// pair when the shortest path cannot be slot-scheduled. Zero means 1
	// (shortest path only).
	MaxAlternatives int
}

// byFlowID sorts flows ascending by ID. Flow IDs are unique within a
// validated FlowSet, so the order is total and any sort algorithm yields
// the same result. Sorted through a pointer receiver so the interface
// conversion does not allocate.
type byFlowID FlowSet

func (s *byFlowID) Len() int           { return len(*s) }
func (s *byFlowID) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }
func (s *byFlowID) Less(i, j int) bool { return (*s)[i].ID < (*s)[j].ID }

// schedScratch bundles the reusable working state of one Schedule (or
// ScheduleAround) call: the path-finder with its search buffers, the sorted
// flow order and the per-attempt slot buffer. Pooled across calls because
// every NBF recovery simulation builds a schedule from scratch.
type schedScratch struct {
	finder  *graph.PathFinder
	ordered byFlowID
	slots   []int
}

var schedScratchPool = sync.Pool{
	New: func() any { return &schedScratch{finder: graph.NewPathFinder()} },
}

// Schedule computes a full flow state for fs on topo. It returns the state
// and the error set ER: the (source, destination) pairs whose bandwidth and
// timing guarantees could not be established. ER is empty when scheduling
// fully succeeds. An invalid input yields a non-nil error instead.
func (sc Scheduler) Schedule(topo *graph.Graph, net Network, fs FlowSet) (*State, []Pair, error) {
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	if err := fs.Validate(net.BasePeriod); err != nil {
		return nil, nil, err
	}
	alts := sc.MaxAlternatives
	if alts <= 0 {
		alts = 1
	}
	hyper := net.Hyperperiod(fs)
	table := acquireSlotTable(hyper)
	defer releaseSlotTable(table)
	scratch := schedScratchPool.Get().(*schedScratch)
	defer schedScratchPool.Put(scratch)
	scratch.finder.Reset(topo)
	state := &State{Net: net}
	var failed []Pair

	// Deterministic order: flows sorted by ID, destinations in spec order.
	scratch.ordered = append(scratch.ordered[:0], fs...)
	sort.Sort(&scratch.ordered)

	for _, f := range scratch.ordered {
		periodSlots := net.PeriodSlots(f.Period)
		deadlineSlots := net.DeadlineSlots(f.Deadline)
		for _, dst := range f.Dsts {
			plan, ok := sc.schedulePair(scratch, table, f, dst, periodSlots, deadlineSlots, alts)
			if !ok {
				failed = append(failed, Pair{Src: f.Src, Dst: dst})
				continue
			}
			state.Plans = append(state.Plans, plan)
		}
	}
	return state, failed, nil
}

// schedulePair tries up to `alts` loopless paths for one (flow, dst) pair
// and greedily assigns slots on the first path that fits. Reservations of
// failed attempts are rolled back. Candidate paths and trial slots live in
// the scratch; only the successful plan's path and slots are copied out
// (they escape into the returned State).
func (sc Scheduler) schedulePair(scratch *schedScratch, table *slotTable, f Flow, dst, periodSlots, deadlineSlots, alts int) (FlowPlan, bool) {
	paths, err := scratch.finder.KShortestPaths(f.Src, dst, alts)
	if err != nil {
		return FlowPlan{}, false
	}
	for _, path := range paths {
		var ok bool
		scratch.slots, ok = assignSlotsInto(table, path, periodSlots, deadlineSlots, scratch.slots[:0])
		if ok {
			return FlowPlan{
				FlowID: f.ID, Dst: dst, Path: path.Clone(),
				Slots: append([]int(nil), scratch.slots...),
			}, true
		}
	}
	return FlowPlan{}, false
}

// assignSlots reserves one strictly increasing slot per hop of path,
// rolling back on failure.
func assignSlots(table *slotTable, path graph.Path, periodSlots, deadlineSlots int) ([]int, bool) {
	if len(path) < 2 {
		return nil, false
	}
	slots, ok := assignSlotsInto(table, path, periodSlots, deadlineSlots, make([]int, 0, len(path)-1))
	if !ok {
		return nil, false
	}
	return slots, true
}

// assignSlotsInto is assignSlots appending into buf (returned re-sliced);
// the result aliases buf, so callers that retain slots must copy them.
func assignSlotsInto(table *slotTable, path graph.Path, periodSlots, deadlineSlots int, buf []int) ([]int, bool) {
	if len(path) < 2 {
		return buf, false
	}
	slots := buf
	prev := -1
	for i := 0; i+1 < len(path); i++ {
		link := DirLink{From: path[i], To: path[i+1]}
		assigned := -1
		for s := prev + 1; s < deadlineSlots && s < periodSlots; s++ {
			if table.conflictFree(link, s, periodSlots) {
				assigned = s
				break
			}
		}
		if assigned == -1 {
			// Roll back reservations made for earlier hops.
			for j := range slots {
				table.release(DirLink{From: path[j], To: path[j+1]}, slots[j], periodSlots)
			}
			return slots, false
		}
		table.reserve(link, assigned, periodSlots)
		slots = append(slots, assigned)
		prev = assigned
	}
	return slots, true
}

// PinnedFlow fixes the routing of one (flow, destination) pair to a given
// path; only the time slots remain to be assigned. FRER-style baselines use
// pinned flows to schedule a frame replica on each redundant path.
type PinnedFlow struct {
	Flow Flow
	// Dst selects the destination (must appear in Flow.Dsts).
	Dst int
	// Path is the fixed route from Flow.Src to Dst.
	Path graph.Path
	// Tag distinguishes replicas of the same flow in the resulting plans
	// (e.g. 0 for the primary FRER path, 1 for the secondary).
	Tag int
}

// SchedulePinnedPaths assigns time slots to flows whose paths are fixed, in
// input order, honoring per-directed-link slot exclusivity. It returns the
// state and the pairs that could not be slotted. Plans keep the original
// flow IDs; replicas are ordered as given.
func (sc Scheduler) SchedulePinnedPaths(topo *graph.Graph, net Network, pinned []PinnedFlow) (*State, []Pair, error) {
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	var fs FlowSet
	seen := make(map[int]bool)
	for _, p := range pinned {
		if !seen[p.Flow.ID] {
			seen[p.Flow.ID] = true
			fs = append(fs, p.Flow)
		}
	}
	if err := fs.Validate(net.BasePeriod); err != nil {
		return nil, nil, err
	}
	hyper := net.Hyperperiod(fs)
	table := acquireSlotTable(hyper)
	defer releaseSlotTable(table)
	state := &State{Net: net}
	var failed []Pair
	for _, p := range pinned {
		if p.Path.Source() != p.Flow.Src || p.Path.Dest() != p.Dst {
			return nil, nil, fmt.Errorf("pinned path endpoints %d->%d do not match flow %d->%d",
				p.Path.Source(), p.Path.Dest(), p.Flow.Src, p.Dst)
		}
		for i := 0; i+1 < len(p.Path); i++ {
			if !topo.HasEdge(p.Path[i], p.Path[i+1]) {
				return nil, nil, fmt.Errorf("pinned path edge (%d,%d) missing from topology", p.Path[i], p.Path[i+1])
			}
		}
		periodSlots := net.PeriodSlots(p.Flow.Period)
		deadlineSlots := net.DeadlineSlots(p.Flow.Deadline)
		slots, ok := assignSlots(table, p.Path, periodSlots, deadlineSlots)
		if !ok {
			failed = append(failed, Pair{Src: p.Flow.Src, Dst: p.Dst})
			continue
		}
		state.Plans = append(state.Plans, FlowPlan{FlowID: p.Flow.ID, Dst: p.Dst, Path: p.Path, Slots: slots})
	}
	return state, failed, nil
}

// SchedulePinnedAround assigns slots to one pinned-path (flow, dst) pair
// while honoring the reservations of an existing state, returning the
// combined state. The error set carries the pair when its path cannot be
// slotted; a non-nil error means invalid inputs.
func (sc Scheduler) SchedulePinnedAround(topo *graph.Graph, net Network, fs FlowSet, pinnedState *State, pf PinnedFlow) (*State, []Pair, error) {
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	if err := fs.Validate(net.BasePeriod); err != nil {
		return nil, nil, err
	}
	if pf.Path.Source() != pf.Flow.Src || pf.Path.Dest() != pf.Dst {
		return nil, nil, fmt.Errorf("pinned path endpoints %d->%d do not match flow %d->%d",
			pf.Path.Source(), pf.Path.Dest(), pf.Flow.Src, pf.Dst)
	}
	for i := 0; i+1 < len(pf.Path); i++ {
		if !topo.HasEdge(pf.Path[i], pf.Path[i+1]) {
			return nil, nil, fmt.Errorf("pinned path edge (%d,%d) missing from topology", pf.Path[i], pf.Path[i+1])
		}
	}
	flowsByID := make(map[int]Flow, len(fs))
	for _, f := range fs {
		flowsByID[f.ID] = f
	}
	hyper := net.Hyperperiod(fs)
	table := acquireSlotTable(hyper)
	defer releaseSlotTable(table)
	out := &State{Net: net}
	if pinnedState != nil {
		for _, p := range pinnedState.Plans {
			f, ok := flowsByID[p.FlowID]
			if !ok {
				return nil, nil, fmt.Errorf("pinned state references unknown flow %d", p.FlowID)
			}
			periodSlots := net.PeriodSlots(f.Period)
			for i, s := range p.Slots {
				table.reserve(DirLink{From: p.Path[i], To: p.Path[i+1]}, s, periodSlots)
			}
			out.Plans = append(out.Plans, p)
		}
	}
	periodSlots := net.PeriodSlots(pf.Flow.Period)
	deadlineSlots := net.DeadlineSlots(pf.Flow.Deadline)
	slots, ok := assignSlots(table, pf.Path, periodSlots, deadlineSlots)
	if !ok {
		return out, []Pair{{Src: pf.Flow.Src, Dst: pf.Dst}}, nil
	}
	out.Plans = append(out.Plans, FlowPlan{FlowID: pf.Flow.ID, Dst: pf.Dst, Path: pf.Path, Slots: slots})
	return out, nil, nil
}

// ScheduleAround schedules the pending flows on topo while keeping the
// reservations of the pinned state untouched. fs must be the complete flow
// specification (it provides periods and the hyperperiod); pending holds
// the (flow, destination) pairs to place, expressed as single-destination
// flows whose IDs refer back into fs. The result combines the pinned plans
// with the newly scheduled ones. It is the building block of incremental
// (stateful) recovery mechanisms.
func (sc Scheduler) ScheduleAround(topo *graph.Graph, net Network, fs FlowSet, pinned *State, pending FlowSet) (*State, []Pair, error) {
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	if err := fs.Validate(net.BasePeriod); err != nil {
		return nil, nil, err
	}
	alts := sc.MaxAlternatives
	if alts <= 0 {
		alts = 1
	}
	flowsByID := make(map[int]Flow, len(fs))
	for _, f := range fs {
		flowsByID[f.ID] = f
	}
	hyper := net.Hyperperiod(fs)
	table := acquireSlotTable(hyper)
	defer releaseSlotTable(table)
	scratch := schedScratchPool.Get().(*schedScratch)
	defer schedScratchPool.Put(scratch)
	scratch.finder.Reset(topo)
	state := &State{Net: net}

	// Pin existing reservations.
	if pinned != nil {
		for _, p := range pinned.Plans {
			f, ok := flowsByID[p.FlowID]
			if !ok {
				return nil, nil, fmt.Errorf("schedule around: pinned plan references unknown flow %d", p.FlowID)
			}
			periodSlots := net.PeriodSlots(f.Period)
			for i, s := range p.Slots {
				table.reserve(DirLink{From: p.Path[i], To: p.Path[i+1]}, s, periodSlots)
			}
			state.Plans = append(state.Plans, p)
		}
	}

	ordered := append(FlowSet(nil), pending...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].ID != ordered[j].ID {
			return ordered[i].ID < ordered[j].ID
		}
		return ordered[i].Dsts[0] < ordered[j].Dsts[0]
	})

	var failed []Pair
	for _, f := range ordered {
		spec, ok := flowsByID[f.ID]
		if !ok {
			return nil, nil, fmt.Errorf("schedule around: pending flow %d not in specification", f.ID)
		}
		periodSlots := net.PeriodSlots(spec.Period)
		deadlineSlots := net.DeadlineSlots(spec.Deadline)
		for _, dst := range f.Dsts {
			plan, ok := sc.schedulePair(scratch, table, spec, dst, periodSlots, deadlineSlots, alts)
			if !ok {
				failed = append(failed, Pair{Src: spec.Src, Dst: dst})
				continue
			}
			state.Plans = append(state.Plans, plan)
		}
	}
	return state, failed, nil
}

// VerifyState checks that a flow state is internally consistent: paths
// exist in the topology, slots strictly increase along each path, deadlines
// hold and no two plans collide on a directed link slot (over the
// hyperperiod). It is used by tests and by the failure analyzer's
// self-checks.
func VerifyState(topo *graph.Graph, net Network, fs FlowSet, st *State) error {
	flowsByID := make(map[int]Flow, len(fs))
	for _, f := range fs {
		flowsByID[f.ID] = f
	}
	hyper := net.Hyperperiod(fs)
	occ := acquireSlotTable(hyper)
	defer releaseSlotTable(occ)
	for _, p := range st.Plans {
		f, ok := flowsByID[p.FlowID]
		if !ok {
			return fmt.Errorf("plan references unknown flow %d", p.FlowID)
		}
		if p.Path.Source() != f.Src || p.Path.Dest() != p.Dst {
			return fmt.Errorf("flow %d: path endpoints %d->%d do not match spec %d->%d",
				p.FlowID, p.Path.Source(), p.Path.Dest(), f.Src, p.Dst)
		}
		if !p.Path.Loopless() {
			return fmt.Errorf("flow %d: path %v has a loop", p.FlowID, p.Path)
		}
		if len(p.Slots) != p.Path.Hops() {
			return fmt.Errorf("flow %d: %d slots for %d hops", p.FlowID, len(p.Slots), p.Path.Hops())
		}
		periodSlots := net.PeriodSlots(f.Period)
		deadlineSlots := net.DeadlineSlots(f.Deadline)
		prev := -1
		for i, s := range p.Slots {
			if !topo.HasEdge(p.Path[i], p.Path[i+1]) {
				return fmt.Errorf("flow %d: hop (%d,%d) missing from topology", p.FlowID, p.Path[i], p.Path[i+1])
			}
			if s <= prev {
				return fmt.Errorf("flow %d: slot %d at hop %d does not increase", p.FlowID, s, i)
			}
			if s >= deadlineSlots {
				return fmt.Errorf("flow %d: slot %d at hop %d misses deadline (%d slots)", p.FlowID, s, i, deadlineSlots)
			}
			link := DirLink{From: p.Path[i], To: p.Path[i+1]}
			if !occ.conflictFree(link, s, periodSlots) {
				return fmt.Errorf("flow %d: slot %d on link %d->%d collides", p.FlowID, s, link.From, link.To)
			}
			occ.reserve(link, s, periodSlots)
			prev = s
		}
	}
	return nil
}
