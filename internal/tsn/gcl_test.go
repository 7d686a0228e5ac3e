package tsn

import (
	"strings"
	"testing"
	"time"
)

func TestBuildGCL(t *testing.T) {
	g := starTopo(t, 3)
	fs := FlowSet{unicast(0, 0, 1), unicast(1, 2, 1)}
	st, er, err := Scheduler{}.Schedule(g, DefaultNetwork(), fs)
	if err != nil || len(er) != 0 {
		t.Fatalf("schedule: er=%v err=%v", er, err)
	}
	gcl, err := BuildGCL(DefaultNetwork(), fs, st)
	if err != nil {
		t.Fatal(err)
	}
	// Shared last hop sw(3)->es1 must carry both flows at distinct slots.
	entries := gcl[DirLink{From: 3, To: 1}]
	if len(entries) != 2 {
		t.Fatalf("entries on 3->1 = %v, want 2", entries)
	}
	if entries[0].Slot == entries[1].Slot {
		t.Fatal("GCL slots collide")
	}
	out := gcl.String()
	if !strings.Contains(out, "3->1:") {
		t.Fatalf("GCL render missing link: %q", out)
	}
}

func TestBuildGCLHarmonicRepetitions(t *testing.T) {
	net := Network{BasePeriod: 2 * time.Microsecond, SlotsPerBase: 2}
	g := starTopo(t, 2)
	fs := FlowSet{
		{ID: 0, Src: 0, Dsts: []int{1}, Period: 2 * net.BasePeriod, Deadline: net.BasePeriod, FrameSize: 1},
	}
	st, er, err := Scheduler{}.Schedule(g, net, fs)
	if err != nil || len(er) != 0 {
		t.Fatalf("schedule: er=%v err=%v", er, err)
	}
	gcl, err := BuildGCL(net, fs, st)
	if err != nil {
		t.Fatal(err)
	}
	// Period 2B = 4 slots, hyperperiod 4 slots: exactly one repetition per
	// hop within the hyperperiod.
	for link, entries := range gcl {
		if len(entries) != 1 {
			t.Fatalf("link %v entries = %v, want 1", link, entries)
		}
	}
}

func TestBuildGCLUnknownFlow(t *testing.T) {
	st := &State{Plans: []FlowPlan{{FlowID: 99}}}
	if _, err := BuildGCL(DefaultNetwork(), nil, st); err == nil {
		t.Fatal("unknown flow accepted")
	}
}
