package tsn

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
)

// starTopo builds nES end stations all attached to a single switch.
func starTopo(t testing.TB, nES int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < nES; i++ {
		g.AddVertex("", graph.KindEndStation)
	}
	sw := g.AddVertex("sw", graph.KindSwitch)
	for i := 0; i < nES; i++ {
		if err := g.AddEdge(i, sw, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestScheduleSimpleStar(t *testing.T) {
	g := starTopo(t, 4)
	fs := FlowSet{unicast(0, 0, 1), unicast(1, 2, 3)}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 0 {
		t.Fatalf("ER = %v, want empty", er)
	}
	if len(st.Plans) != 2 {
		t.Fatalf("got %d plans, want 2", len(st.Plans))
	}
	if err := VerifyState(g, DefaultNetwork(), fs, st); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}
	p, ok := st.PlanFor(0, 1)
	if !ok || !p.Path.Equal(graph.Path{0, 4, 1}) {
		t.Fatalf("plan for flow 0 = %+v", p)
	}
	// Slots must be strictly increasing starting from 0.
	if p.Slots[0] != 0 || p.Slots[1] != 1 {
		t.Fatalf("slots = %v, want [0 1]", p.Slots)
	}
}

func TestScheduleContendingFlowsSerialize(t *testing.T) {
	// Two flows share the directed link sw->dst.
	g := starTopo(t, 3)
	fs := FlowSet{unicast(0, 0, 2), unicast(1, 1, 2)}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 0 {
		t.Fatalf("ER = %v, want empty", er)
	}
	p0, _ := st.PlanFor(0, 2)
	p1, _ := st.PlanFor(1, 2)
	if p0.Slots[1] == p1.Slots[1] {
		t.Fatalf("flows share slot %d on the same directed link", p0.Slots[1])
	}
	if err := VerifyState(g, DefaultNetwork(), fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleOppositeDirectionsShareSlot(t *testing.T) {
	// Full duplex: 0->1 and 1->0 may use the same slot.
	g := graph.New()
	g.AddVertex("", graph.KindEndStation)
	g.AddVertex("", graph.KindEndStation)
	sw := g.AddVertex("", graph.KindSwitch)
	mustEdge(t, g, 0, sw)
	mustEdge(t, g, 1, sw)
	fs := FlowSet{unicast(0, 0, 1), unicast(1, 1, 0)}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 0 {
		t.Fatalf("ER = %v, want empty", er)
	}
	p0, _ := st.PlanFor(0, 1)
	p1, _ := st.PlanFor(1, 0)
	if p0.Slots[0] != 0 || p1.Slots[0] != 0 {
		t.Fatalf("full-duplex directions should both start at slot 0: %v %v", p0.Slots, p1.Slots)
	}
}

func mustEdge(t testing.TB, g *graph.Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDisconnectedPairFails(t *testing.T) {
	g := graph.New()
	g.AddVertex("", graph.KindEndStation)
	g.AddVertex("", graph.KindEndStation)
	fs := FlowSet{unicast(0, 0, 1)}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 1 || er[0] != (Pair{Src: 0, Dst: 1}) {
		t.Fatalf("ER = %v, want [(0->1)]", er)
	}
	if len(st.Plans) != 0 {
		t.Fatalf("plans = %v, want none", st.Plans)
	}
}

func TestScheduleSlotExhaustion(t *testing.T) {
	// A 2-slot base period on a shared last hop can fit exactly 1 flow:
	// each flow needs hop1 then hop2 with strictly increasing slots, so the
	// second hop must use slot 1; two flows collide there.
	net := Network{BasePeriod: 2 * time.Microsecond, SlotsPerBase: 2}
	g := starTopo(t, 3)
	mk := func(id, src int) Flow {
		return Flow{ID: id, Src: src, Dsts: []int{2}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1}
	}
	fs := FlowSet{mk(0, 0), mk(1, 1)}
	st, er, err := Scheduler{}.Schedule(g, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 1 {
		t.Fatalf("ER = %v, want exactly one unschedulable pair", er)
	}
	if len(st.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(st.Plans))
	}
	if err := VerifyState(g, net, fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleRollbackReleasesSlots(t *testing.T) {
	// Flow 0 takes a path, flow 1 cannot fit (deadline too tight through a
	// long detour), flow 2 must still be schedulable on the slots flow 1
	// would have partially reserved.
	net := Network{BasePeriod: 4 * time.Microsecond, SlotsPerBase: 4}
	// Path graph: es0 - sw1 - sw2 - sw3 - es4, plus es5 on sw1.
	g := graph.New()
	g.AddVertex("es0", graph.KindEndStation) // 0
	g.AddVertex("sw1", graph.KindSwitch)     // 1
	g.AddVertex("sw2", graph.KindSwitch)     // 2
	g.AddVertex("sw3", graph.KindSwitch)     // 3
	g.AddVertex("es4", graph.KindEndStation) // 4
	g.AddVertex("es5", graph.KindEndStation) // 5
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {5, 1}} {
		mustEdge(t, g, e[0], e[1])
	}
	short := time.Microsecond // deadline of 1 slot: only 1-hop paths fit
	fs := FlowSet{
		{ID: 0, Src: 0, Dsts: []int{4}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1},
		{ID: 1, Src: 5, Dsts: []int{4}, Period: net.BasePeriod, Deadline: short, FrameSize: 1},
		{ID: 2, Src: 5, Dsts: []int{0}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1},
	}
	st, er, err := Scheduler{}.Schedule(g, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 1 || er[0] != (Pair{Src: 5, Dst: 4}) {
		t.Fatalf("ER = %v, want [(5->4)]", er)
	}
	if _, ok := st.PlanFor(2, 0); !ok {
		t.Fatal("flow 2 should be schedulable after flow 1's rollback")
	}
	if err := VerifyState(g, net, fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAlternativePathAvoidsCongestion(t *testing.T) {
	// Two disjoint 2-hop routes between 0 and 3; with a 1-slot-per-hop
	// squeeze on the primary, MaxAlternatives=2 finds the secondary.
	net := Network{BasePeriod: 3 * time.Microsecond, SlotsPerBase: 3}
	g := graph.New()
	g.AddVertex("", graph.KindEndStation) // 0
	g.AddVertex("", graph.KindSwitch)     // 1 (primary)
	g.AddVertex("", graph.KindSwitch)     // 2 (secondary)
	g.AddVertex("", graph.KindEndStation) // 3
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 3)
	if err := g.AddEdge(0, 2, 1.5); err != nil { // slightly longer
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, 1.5); err != nil {
		t.Fatal(err)
	}
	mk := func(id int) Flow {
		return Flow{ID: id, Src: 0, Dsts: []int{3}, Period: net.BasePeriod, Deadline: 2 * time.Microsecond, FrameSize: 1}
	}
	fs := FlowSet{mk(0), mk(1)}

	_, er, err := Scheduler{}.Schedule(g, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 1 {
		t.Fatalf("shortest-path-only: ER = %v, want 1 failure", er)
	}

	st, er, err := Scheduler{MaxAlternatives: 2}.Schedule(g, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 0 {
		t.Fatalf("with alternatives: ER = %v, want empty", er)
	}
	if err := VerifyState(g, net, fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleMulticast(t *testing.T) {
	g := starTopo(t, 4)
	fs := FlowSet{{ID: 0, Src: 0, Dsts: []int{1, 2, 3}, Period: base, Deadline: base, FrameSize: 1}}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er) != 0 || len(st.Plans) != 3 {
		t.Fatalf("multicast: ER=%v plans=%d", er, len(st.Plans))
	}
	if err := VerifyState(g, DefaultNetwork(), fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleHarmonicPeriods(t *testing.T) {
	// A slow flow (period 2B) and fast flows (period B) share links; the
	// fast flows must avoid the slow flow's repetitions.
	net := Network{BasePeriod: 2 * time.Microsecond, SlotsPerBase: 2}
	g := starTopo(t, 3)
	fs := FlowSet{
		{ID: 0, Src: 0, Dsts: []int{2}, Period: 2 * net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1},
		{ID: 1, Src: 1, Dsts: []int{2}, Period: net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1},
	}
	st, er, err := Scheduler{}.Schedule(g, net, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0 takes sw->es2 slot 1 in even base periods. Flow 1 needs
	// sw->es2 slot 1 in every base period, so it must fail.
	if len(er) != 1 || er[0] != (Pair{Src: 1, Dst: 2}) {
		t.Fatalf("ER = %v, want [(1->2)]", er)
	}
	if err := VerifyState(g, net, fs, st); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	g := starTopo(t, 6)
	var fs FlowSet
	for i := 0; i < 8; i++ {
		fs = append(fs, unicast(i, i%6, (i+1)%6))
	}
	st1, er1, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	st2, er2, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(er1) != len(er2) || len(st1.Plans) != len(st2.Plans) {
		t.Fatal("scheduler is not deterministic")
	}
	for i := range st1.Plans {
		if !st1.Plans[i].Path.Equal(st2.Plans[i].Path) {
			t.Fatal("paths differ across runs")
		}
		for j := range st1.Plans[i].Slots {
			if st1.Plans[i].Slots[j] != st2.Plans[i].Slots[j] {
				t.Fatal("slots differ across runs")
			}
		}
	}
}

func TestScheduleInvalidInputs(t *testing.T) {
	g := starTopo(t, 2)
	if _, _, err := (Scheduler{}).Schedule(g, Network{}, FlowSet{unicast(0, 0, 1)}); err == nil {
		t.Error("invalid network accepted")
	}
	badFlow := unicast(0, 0, 1)
	badFlow.Period = 0
	if _, _, err := (Scheduler{}).Schedule(g, DefaultNetwork(), FlowSet{badFlow}); err == nil {
		t.Error("invalid flow accepted")
	}
}

func TestScheduleProperty(t *testing.T) {
	// On random connected topologies, every scheduled state verifies, and
	// plans exist exactly for pairs not in ER.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nES := 3 + rng.Intn(4)
		nSW := 1 + rng.Intn(3)
		g := graph.New()
		for i := 0; i < nES; i++ {
			g.AddVertex("", graph.KindEndStation)
		}
		for i := 0; i < nSW; i++ {
			g.AddVertex("", graph.KindSwitch)
		}
		// Each ES attaches to a random switch; switches form a line.
		for i := 0; i < nES; i++ {
			_ = g.AddEdge(i, nES+rng.Intn(nSW), 1)
		}
		for i := 0; i+1 < nSW; i++ {
			_ = g.AddEdge(nES+i, nES+i+1, 1)
		}
		var fs FlowSet
		for i := 0; i < 2+rng.Intn(6); i++ {
			s := rng.Intn(nES)
			d := rng.Intn(nES)
			if s == d {
				d = (d + 1) % nES
			}
			fs = append(fs, unicast(i, s, d))
		}
		st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
		if err != nil {
			return false
		}
		if err := VerifyState(g, DefaultNetwork(), fs, st); err != nil {
			return false
		}
		return len(st.Plans)+len(er) == len(fs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStateHelpers(t *testing.T) {
	g := starTopo(t, 3)
	fs := FlowSet{unicast(0, 0, 1)}
	st, _, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.PlanFor(9, 9); ok {
		t.Error("missing plan reported present")
	}
	p, _ := st.PlanFor(0, 1)
	if p.ArrivalSlot() != p.Slots[len(p.Slots)-1] {
		t.Error("ArrivalSlot wrong")
	}
	if (FlowPlan{}).ArrivalSlot() != -1 {
		t.Error("empty plan ArrivalSlot should be -1")
	}
}
