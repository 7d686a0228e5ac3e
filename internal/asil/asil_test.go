package asil

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestDefaultLibraryMatchesPaper(t *testing.T) {
	lib := DefaultLibrary()
	// Table I switch costs.
	wantSwitch := map[Level]map[int]float64{
		LevelA: {4: 8, 6: 10, 8: 16},
		LevelB: {4: 12, 6: 15, 8: 24},
		LevelC: {4: 18, 6: 22, 8: 36},
		LevelD: {4: 27, 6: 33, 8: 54},
	}
	for lvl, row := range wantSwitch {
		for ports, want := range row {
			got, err := lib.SwitchCost(lvl, ports)
			if err != nil {
				t.Fatalf("SwitchCost(%s,%d): %v", lvl, ports, err)
			}
			if got != want {
				t.Errorf("SwitchCost(%s,%d) = %v, want %v", lvl, ports, got, want)
			}
		}
	}
	// Table I link costs per unit length.
	wantLink := map[Level]float64{LevelA: 1, LevelB: 2, LevelC: 4, LevelD: 8}
	for lvl, want := range wantLink {
		got, err := lib.LinkCost(lvl, 1)
		if err != nil {
			t.Fatalf("LinkCost(%s,1): %v", lvl, err)
		}
		if got != want {
			t.Errorf("LinkCost(%s,1) = %v, want %v", lvl, got, want)
		}
	}
	// Table I failure probabilities: 1 − e^{−λ·1000h} ≈ the rounded 10^-n
	// values, but strictly below them (the ASIL-D probability must stay
	// below R = 1e-6 so a single ASIL-D device is a safe fault, §VI-A).
	wantProb := map[Level]float64{LevelA: 1e-3, LevelB: 1e-4, LevelC: 1e-5, LevelD: 1e-6}
	for lvl, want := range wantProb {
		got := lib.FailureProb(lvl)
		if got >= want || got < want*0.999 {
			t.Errorf("FailureProb(%s) = %v, want just below %v", lvl, got, want)
		}
	}
	if lib.MaxSwitchDegree() != 8 {
		t.Errorf("MaxSwitchDegree = %d, want 8", lib.MaxSwitchDegree())
	}
}

func TestSwitchCostPicksSmallestFeasible(t *testing.T) {
	lib := DefaultLibrary()
	cases := []struct {
		deg  int
		want float64
	}{
		{0, 8}, {1, 8}, {4, 8}, {5, 10}, {6, 10}, {7, 16}, {8, 16},
	}
	for _, c := range cases {
		got, err := lib.SwitchCost(LevelA, c.deg)
		if err != nil {
			t.Fatalf("SwitchCost(A,%d): %v", c.deg, err)
		}
		if got != c.want {
			t.Errorf("SwitchCost(A,%d) = %v, want %v", c.deg, got, c.want)
		}
	}
	if _, err := lib.SwitchCost(LevelA, 9); err == nil {
		t.Error("degree 9 should exceed the library")
	}
	if _, err := lib.SwitchCost(Level(0), 4); err == nil {
		t.Error("invalid ASIL should error")
	}
}

func TestLinkCostScalesWithLength(t *testing.T) {
	lib := DefaultLibrary()
	got, err := lib.LinkCost(LevelC, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("LinkCost(C,2.5) = %v, want 10", got)
	}
	if _, err := lib.LinkCost(LevelC, -1); err == nil {
		t.Error("negative length should error")
	}
}

func TestLevelHelpers(t *testing.T) {
	if LevelA.String() != "A" || LevelD.String() != "D" {
		t.Error("Level.String wrong")
	}
	if Level(0).Valid() || Level(5).Valid() {
		t.Error("invalid levels reported valid")
	}
	if n, ok := LevelA.Next(); !ok || n != LevelB {
		t.Error("A.Next should be B")
	}
	if _, ok := LevelD.Next(); ok {
		t.Error("D must not be upgradable")
	}
	if Min(LevelB, LevelD) != LevelB || Min(LevelD, LevelA) != LevelA {
		t.Error("Min wrong")
	}
	if Min(0, LevelA) != 0 {
		t.Error("Min should treat unassigned as lowest")
	}
}

func TestNewLibraryValidation(t *testing.T) {
	base := LibraryConfig{
		PortOptions: []int{4},
		SwitchCost: map[Level]map[int]float64{
			LevelA: {4: 1}, LevelB: {4: 2}, LevelC: {4: 3}, LevelD: {4: 4},
		},
		LinkCostPerUnit: map[Level]float64{LevelA: 1, LevelB: 2, LevelC: 3, LevelD: 4},
		FailureProb:     map[Level]float64{LevelA: 1e-3, LevelB: 1e-4, LevelC: 1e-5, LevelD: 1e-6},
	}
	if _, err := NewLibrary(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := base
	bad.PortOptions = nil
	if _, err := NewLibrary(bad); err == nil {
		t.Error("empty port options accepted")
	}

	bad = base
	bad.PortOptions = []int{4, 4}
	if _, err := NewLibrary(bad); err == nil {
		t.Error("non-ascending port options accepted")
	}

	bad = base
	bad.SwitchCost = map[Level]map[int]float64{LevelA: {4: 1}}
	if _, err := NewLibrary(bad); err == nil {
		t.Error("missing switch costs accepted")
	}

	bad = base
	bad.FailureProb = map[Level]float64{LevelA: 1e-6, LevelB: 1e-4, LevelC: 1e-5, LevelD: 1e-3}
	if _, err := NewLibrary(bad); err == nil {
		t.Error("inverted failure probabilities accepted")
	}

	bad = base
	bad.FailureProb = map[Level]float64{LevelA: 1e-3, LevelB: 1e-4, LevelC: 1e-5, LevelD: 2}
	if _, err := NewLibrary(bad); err == nil {
		t.Error("failure probability >= 1 accepted")
	}
}

// costFixture builds ES0 - SW2 - ES1 with switch ASIL-B and both links
// inheriting ASIL-B; link lengths 1 each.
func costFixture(t testing.TB) (*graph.Graph, *Assignment) {
	t.Helper()
	g := graph.New()
	g.AddVertex("es0", graph.KindEndStation)
	g.AddVertex("es1", graph.KindEndStation)
	g.AddVertex("sw0", graph.KindSwitch)
	if err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	a := NewAssignment()
	a.Switches[2] = LevelB
	a.SetLink(0, 2, LevelB)
	a.SetLink(2, 1, LevelB)
	return g, a
}

func TestNetworkCostEq1(t *testing.T) {
	g, a := costFixture(t)
	lib := DefaultLibrary()
	got, err := NetworkCost(g, a, lib)
	if err != nil {
		t.Fatal(err)
	}
	// 4-port ASIL-B switch = 12, two ASIL-B unit links = 2*2.
	if got != 16 {
		t.Errorf("NetworkCost = %v, want 16", got)
	}
}

func TestNetworkCostErrors(t *testing.T) {
	lib := DefaultLibrary()
	g, a := costFixture(t)
	delete(a.Switches, 2)
	if _, err := NetworkCost(g, a, lib); err == nil {
		t.Error("switch without ASIL accepted")
	}

	g, a = costFixture(t)
	delete(a.Links, graph.Edge{U: 0, V: 2})
	if _, err := NetworkCost(g, a, lib); err == nil {
		t.Error("link without ASIL accepted")
	}
}

func TestNetworkCostIgnoresUnselectedSwitch(t *testing.T) {
	g, a := costFixture(t)
	g.AddVertex("sw-unused", graph.KindSwitch) // degree 0, unassigned
	lib := DefaultLibrary()
	got, err := NetworkCost(g, a, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Errorf("NetworkCost = %v, want 16 (unused switch must be free)", got)
	}
}

func TestFailureProbabilityEq2(t *testing.T) {
	_, a := costFixture(t)
	lib := DefaultLibrary()
	p, err := FailureProbability(a, lib, []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1e-4) > 1e-7 {
		t.Errorf("P(switch B fails) = %v, want ~1e-4", p)
	}
	p, err = FailureProbability(a, lib, []int{2}, []graph.Edge{{U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1e-8) > 1e-11 {
		t.Errorf("P(joint) = %v, want ~1e-8", p)
	}
	if _, err := FailureProbability(a, lib, []int{99}, nil); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := FailureProbability(a, lib, nil, []graph.Edge{{U: 5, V: 6}}); err == nil {
		t.Error("unknown link accepted")
	}
	p, err = FailureProbability(a, lib, nil, nil)
	if err != nil || p != 1 {
		t.Errorf("empty failure = %v,%v, want 1,nil", p, err)
	}
}

func TestFailureProbabilityMonotoneProperty(t *testing.T) {
	lib := DefaultLibrary()
	a := NewAssignment()
	for i := 0; i < 8; i++ {
		a.Switches[i] = Levels()[i%4]
	}
	prop := func(maskRaw uint8) bool {
		var set []int
		for i := 0; i < 8; i++ {
			if maskRaw&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		p1, err := FailureProbability(a, lib, set, nil)
		if err != nil {
			return false
		}
		// Growing the failure set can only decrease (or keep) probability.
		grown := append(append([]int(nil), set...), int(maskRaw)%8)
		p2, err := FailureProbability(a, lib, grown, nil)
		if err != nil {
			return false
		}
		return p2 <= p1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentCloneAndLinkLookup(t *testing.T) {
	a := NewAssignment()
	a.Switches[1] = LevelC
	a.SetLink(5, 3, LevelB)
	if a.LinkLevel(3, 5) != LevelB || a.LinkLevel(5, 3) != LevelB {
		t.Error("link lookup must be order independent")
	}
	c := a.Clone()
	c.Switches[1] = LevelD
	c.SetLink(5, 3, LevelD)
	if a.Switches[1] != LevelC || a.LinkLevel(5, 3) != LevelB {
		t.Error("Clone shares storage")
	}
	if a.SwitchLevel(42) != 0 {
		t.Error("missing switch should be level 0")
	}
}

func TestDecomposition(t *testing.T) {
	// ISO 26262: D = B+B or C+A; single channel must be >= goal.
	cases := []struct {
		goal, a, b Level
		want       bool
	}{
		{LevelD, LevelB, LevelB, true},
		{LevelD, LevelC, LevelA, true},
		{LevelD, LevelA, LevelC, true},
		{LevelD, LevelB, LevelA, false},
		{LevelD, LevelA, LevelA, false},
		{LevelD, LevelD, 0, true},
		{LevelD, LevelC, 0, false},
		{LevelC, LevelB, LevelA, true},
		{LevelC, LevelA, LevelA, false},
		{LevelB, LevelA, LevelA, true},
		{LevelA, LevelA, 0, true},
	}
	for _, c := range cases {
		if got := DecompositionSatisfies(c.goal, c.a, c.b); got != c.want {
			t.Errorf("DecompositionSatisfies(%s,%s,%s) = %v, want %v", c.goal, c.a, c.b, got, c.want)
		}
	}
	if DecompositionPairs(Level(7)) != nil {
		t.Error("invalid goal should have no pairs")
	}
}
