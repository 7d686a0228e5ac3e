package graph

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShortestPathLine(t *testing.T) {
	g := line(t, 5)
	p, err := g.ShortestPath(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Path{0, 1, 2, 3, 4}
	if !p.Equal(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	if p.Length(g) != 4 {
		t.Fatalf("Length = %v, want 4", p.Length(g))
	}
	if p.Hops() != 4 {
		t.Fatalf("Hops = %d, want 4", p.Hops())
	}
}

func TestShortestPathPrefersShorterWeighted(t *testing.T) {
	// 0 -(10)- 1 and 0 -(1)- 2 -(1)- 1: weighted shortest goes via 2.
	g := New()
	for i := 0; i < 3; i++ {
		g.AddVertex("", KindSwitch)
	}
	mustAdd(t, g, 0, 1, 10)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 2, 1, 1)
	p, err := g.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{0, 2, 1}) {
		t.Fatalf("path = %v, want [0 2 1]", p)
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New()
	g.AddVertex("", KindSwitch)
	g.AddVertex("", KindSwitch)
	if _, err := g.ShortestPath(0, 1); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	if _, err := g.ShortestPath(0, 9); !errors.Is(err, ErrNoPath) {
		t.Fatalf("out of range: err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathSameVertex(t *testing.T) {
	g := line(t, 2)
	p, err := g.ShortestPath(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{1}) {
		t.Fatalf("path = %v, want [1]", p)
	}
}

func TestShortestPathConstrainedBans(t *testing.T) {
	// Square: 0-1-3 and 0-2-3.
	g := New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", KindSwitch)
	}
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 3, 1)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 2, 3, 1)

	f := NewPathFinder()
	f.Reset(g)
	f.clearConstraints()
	f.banNode(1)
	p, err := f.dijkstra(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{0, 2, 3}) {
		t.Fatalf("path = %v, want [0 2 3]", p)
	}

	f.clearConstraints()
	f.banEdge(Edge{U: 0, V: 2})
	p, err = f.dijkstra(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Path{0, 1, 3}) {
		t.Fatalf("path = %v, want [0 1 3]", p)
	}

	f.clearConstraints()
	f.banNode(1)
	f.banNode(2)
	if _, err = f.dijkstra(0, 3); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestPathHelpers(t *testing.T) {
	g := line(t, 4)
	p := Path{0, 1, 2}
	if p.Source() != 0 || p.Dest() != 2 {
		t.Fatalf("Source/Dest = %d/%d", p.Source(), p.Dest())
	}
	if !p.Contains(1) || p.Contains(3) {
		t.Fatal("Contains is wrong")
	}
	if !p.Loopless() {
		t.Fatal("p should be loopless")
	}
	if (Path{0, 1, 0}).Loopless() {
		t.Fatal("looped path reported loopless")
	}
	es := p.Edges(g)
	if len(es) != 2 || es[0] != (Edge{U: 0, V: 1, Length: 1}) {
		t.Fatalf("Edges = %v", es)
	}
	var empty Path
	if empty.Source() != -1 || empty.Dest() != -1 || empty.Hops() != 0 {
		t.Fatal("empty path helpers wrong")
	}
	if empty.Edges(g) != nil {
		t.Fatal("empty path should have no edges")
	}
	c := p.Clone()
	c[0] = 9
	if p[0] == 9 {
		t.Fatal("Clone shares storage")
	}
}

// randomConnectedGraph builds a connected random graph for property tests.
func randomConnectedGraph(rng *rand.Rand, n int, extraEdges int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex("", KindSwitch)
	}
	// Random spanning tree first.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[i]
		v := perm[rng.Intn(i)]
		_ = g.AddEdge(u, v, 1+rng.Float64()*4)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v, 1+rng.Float64()*4)
		}
	}
	return g
}

func TestShortestPathPropertyValidAndMinimalHopUpperBound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := randomConnectedGraph(rng, n, n)
		s, d := rng.Intn(n), rng.Intn(n)
		p, err := g.ShortestPath(s, d)
		if err != nil {
			return false // connected graph: path must exist
		}
		if p.Source() != s || p.Dest() != d || !p.Loopless() {
			return false
		}
		// Every consecutive pair must be an edge.
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				return false
			}
		}
		// No single edge (s,d) may be shorter than the found path.
		if l, ok := g.EdgeLength(s, d); ok && l < p.Length(g) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
