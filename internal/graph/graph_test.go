package graph

import (
	"testing"
)

// line builds a path graph v0-v1-...-v(n-1) with unit lengths.
func line(t testing.TB, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		g.AddVertex("", KindSwitch)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1, 1); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", i, i+1, err)
		}
	}
	return g
}

func TestAddVertexAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if id := g.AddVertex("", KindEndStation); id != i {
			t.Fatalf("AddVertex returned %d, want %d", id, i)
		}
	}
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New()
	g.AddVertex("a", KindSwitch)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("expected error for self loop")
	}
}

func TestAddEdgeRejectsUnknownVertex(t *testing.T) {
	g := New()
	g.AddVertex("a", KindSwitch)
	if err := g.AddEdge(0, 7, 1); err == nil {
		t.Fatal("expected error for unknown vertex")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Fatal("expected error for negative vertex")
	}
}

func TestAddEdgeIdempotentUpdatesLength(t *testing.T) {
	g := line(t, 2)
	if err := g.AddEdge(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if l, ok := g.EdgeLength(1, 0); !ok || l != 9 {
		t.Fatalf("EdgeLength = %v,%v, want 9,true", l, ok)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := line(t, 3)
	g.RemoveEdge(1, 0) // reversed order must work
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present after removal")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	g.RemoveEdge(0, 1) // double removal is a no-op
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges after double removal = %d, want 1", g.NumEdges())
	}
}

func TestIsolateVertex(t *testing.T) {
	g := line(t, 3)
	g.IsolateVertex(1)
	if g.Degree(1) != 0 {
		t.Fatalf("Degree(1) = %d, want 0", g.Degree(1))
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.Connected(0, 2) {
		t.Fatal("0 and 2 should be disconnected after isolating 1")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", KindSwitch)
	}
	for _, v := range []int{1, 2, 3} {
		if err := g.AddEdge(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d, want 3", g.Degree(0))
	}
	ns := g.Neighbors(0)
	want := []int{1, 2, 3}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", ns, want)
		}
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddVertex("", KindSwitch)
	}
	mustAdd(t, g, 3, 2, 1)
	mustAdd(t, g, 1, 0, 1)
	mustAdd(t, g, 2, 0, 1)
	es := g.Edges()
	want := []Edge{{U: 0, V: 1, Length: 1}, {U: 0, V: 2, Length: 1}, {U: 2, V: 3, Length: 1}}
	if len(es) != len(want) {
		t.Fatalf("got %d edges, want %d", len(es), len(want))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %+v, want %+v", i, es[i], want[i])
		}
	}
}

func mustAdd(t testing.TB, g *Graph, u, v int, l float64) {
	t.Helper()
	if err := g.AddEdge(u, v, l); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := line(t, 3)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("mutating clone affected the original")
	}
	mustAdd(t, g, 0, 2, 1)
	if c.HasEdge(0, 2) {
		t.Fatal("mutating original affected the clone")
	}
}

func TestEmptyLike(t *testing.T) {
	g := line(t, 4)
	e := g.EmptyLike()
	if e.NumVertices() != 4 || e.NumEdges() != 0 {
		t.Fatalf("EmptyLike: %d vertices %d edges, want 4 and 0", e.NumVertices(), e.NumEdges())
	}
	if e.MustVertex(2).Kind != KindSwitch {
		t.Fatal("EmptyLike lost vertex kinds")
	}
}

func TestResidual(t *testing.T) {
	g := line(t, 5)
	r := g.Residual([]int{2}, []Edge{{U: 3, V: 4}})
	if r.Degree(2) != 0 {
		t.Fatal("failed node not isolated")
	}
	if r.HasEdge(3, 4) {
		t.Fatal("failed edge not removed")
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("Residual mutated the source graph")
	}
}

func TestIsSubgraphOf(t *testing.T) {
	g := line(t, 4)
	sub := g.Clone()
	sub.RemoveEdge(1, 2)
	if !sub.IsSubgraphOf(g) {
		t.Fatal("sub should be a subgraph of g")
	}
	mustAdd(t, sub, 0, 3, 1)
	if sub.IsSubgraphOf(g) {
		t.Fatal("sub has an extra edge; should not be a subgraph")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddVertex("", KindSwitch)
	}
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 4, 5, 1)
	if !g.Connected(0, 2) {
		t.Fatal("0-2 should be connected")
	}
	if g.Connected(0, 4) {
		t.Fatal("0-4 should not be connected")
	}
	if !g.Connected(3, 3) {
		t.Fatal("a vertex is connected to itself")
	}
	for v := 0; v < 6; v++ {
		if got, want := g.Connected(1, v), v <= 2; got != want {
			t.Fatalf("Connected(1, %d) = %v, want %v", v, got, want)
		}
	}
}

func TestHopDistances(t *testing.T) {
	g := line(t, 4)
	g.AddVertex("iso", KindEndStation)
	d := g.HopDistances(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("HopDistances = %v, want %v", d, want)
		}
	}
}

func TestAdjacencyMatrixSymmetric(t *testing.T) {
	g := line(t, 3)
	m := g.AdjacencyMatrix()
	n := 3
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m[i*n+j] != m[j*n+i] {
				t.Fatalf("adjacency not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if m[0*n+1] != 1 || m[0*n+2] != 0 || m[1*n+1] != 0 {
		t.Fatalf("unexpected adjacency: %v", m)
	}
}

func TestVerticesOfKind(t *testing.T) {
	g := New()
	g.AddVertex("es0", KindEndStation)
	g.AddVertex("sw0", KindSwitch)
	g.AddVertex("es1", KindEndStation)
	es := g.VerticesOfKind(KindEndStation)
	if len(es) != 2 || es[0] != 0 || es[1] != 2 {
		t.Fatalf("VerticesOfKind(es) = %v, want [0 2]", es)
	}
	sw := g.VerticesOfKind(KindSwitch)
	if len(sw) != 1 || sw[0] != 1 {
		t.Fatalf("VerticesOfKind(sw) = %v, want [1]", sw)
	}
}

func TestVertexOutOfRange(t *testing.T) {
	g := New()
	if _, err := g.Vertex(0); err == nil {
		t.Fatal("expected error for missing vertex")
	}
	if g.Kind(3) != 0 {
		t.Fatal("Kind of missing vertex should be 0")
	}
	if g.Degree(-1) != 0 {
		t.Fatal("Degree of negative vertex should be 0")
	}
}

func TestKindString(t *testing.T) {
	if KindEndStation.String() != "es" || KindSwitch.String() != "sw" {
		t.Fatal("unexpected Kind strings")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestEdgeCanonical(t *testing.T) {
	e := Edge{U: 5, V: 2, Length: 3}.Canonical()
	if e.U != 2 || e.V != 5 || e.Length != 3 {
		t.Fatalf("Canonical = %+v", e)
	}
}
