package tsn

import (
	"fmt"
	"sort"
	"strings"
)

// GateEntry is one row of a gate control list: during slot Slot (within the
// hyperperiod) the TT gate of the link opens for flow FlowID.
type GateEntry struct {
	Slot   int
	FlowID int
}

// GateControlList is the per-directed-link TAS schedule derived from a flow
// state, as specified by IEEE 802.1Qbv: a cyclic list of gate operations
// executed against the globally synchronized clock.
type GateControlList map[DirLink][]GateEntry

// BuildGCL expands a flow state into gate control lists over the
// hyperperiod of the flow set.
func BuildGCL(net Network, fs FlowSet, st *State) (GateControlList, error) {
	flowsByID := make(map[int]Flow, len(fs))
	for _, f := range fs {
		flowsByID[f.ID] = f
	}
	hyper := net.Hyperperiod(fs)
	gcl := make(GateControlList)
	for _, p := range st.Plans {
		f, ok := flowsByID[p.FlowID]
		if !ok {
			return nil, fmt.Errorf("gcl: unknown flow %d", p.FlowID)
		}
		periodSlots := net.PeriodSlots(f.Period)
		for i, s := range p.Slots {
			link := DirLink{From: p.Path[i], To: p.Path[i+1]}
			for abs := s; abs < hyper; abs += periodSlots {
				gcl[link] = append(gcl[link], GateEntry{Slot: abs % hyper, FlowID: p.FlowID})
			}
		}
	}
	for link := range gcl {
		entries := gcl[link]
		sort.Slice(entries, func(i, j int) bool { return entries[i].Slot < entries[j].Slot })
		for i := 1; i < len(entries); i++ {
			if entries[i].Slot == entries[i-1].Slot {
				return nil, fmt.Errorf("gcl: slot %d on %d->%d double-booked by flows %d and %d",
					entries[i].Slot, link.From, link.To, entries[i-1].FlowID, entries[i].FlowID)
			}
		}
	}
	return gcl, nil
}

// String renders the GCL as a stable, human-readable table.
func (g GateControlList) String() string {
	links := make([]DirLink, 0, len(g))
	for l := range g {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	var b strings.Builder
	for _, l := range links {
		fmt.Fprintf(&b, "%d->%d:", l.From, l.To)
		for _, e := range g[l] {
			fmt.Fprintf(&b, " [slot %d: flow %d]", e.Slot, e.FlowID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
