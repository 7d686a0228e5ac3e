// Package graph provides the undirected-graph substrate used by NPTSN:
// connection graphs, topologies and failure scenarios are all values of
// *Graph. Vertices are dense integer IDs so that graphs map directly onto
// the adjacency/feature matrices consumed by the GCN encoder.
package graph

import (
	"fmt"
	"sort"
)

// Kind classifies a vertex of an in-vehicle network.
type Kind int

const (
	// KindEndStation marks an application end station (ECU, sensor, actuator).
	KindEndStation Kind = iota + 1
	// KindSwitch marks a TSN switch.
	KindSwitch
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindEndStation:
		return "es"
	case KindSwitch:
		return "sw"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Vertex is a node of a network graph. IDs are dense indices assigned by
// AddVertex in insertion order, which keeps graph state and neural-network
// observations aligned.
type Vertex struct {
	ID   int
	Name string
	Kind Kind
}

// Edge is an undirected link between two vertices. Length is the cable
// length used by the link cost function; a failure scenario reuses Edge with
// Length ignored.
type Edge struct {
	U, V   int
	Length float64
}

// Canonical returns the edge with U <= V so that edges compare consistently.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is a simple undirected graph with weighted edges. The zero value is
// an empty graph ready to use. Graph is not safe for concurrent mutation.
type Graph struct {
	vertices []Vertex
	adj      []map[int]float64
	edges    int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// AddVertex appends a vertex and returns its ID.
func (g *Graph) AddVertex(name string, kind Kind) int {
	id := len(g.vertices)
	g.vertices = append(g.vertices, Vertex{ID: id, Name: name, Kind: kind})
	g.adj = append(g.adj, nil)
	return id
}

// NumVertices returns the number of vertices (including isolated ones).
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id int) (Vertex, error) {
	if id < 0 || id >= len(g.vertices) {
		return Vertex{}, fmt.Errorf("vertex %d out of range [0,%d)", id, len(g.vertices))
	}
	return g.vertices[id], nil
}

// MustVertex returns the vertex with the given ID and panics if it does not
// exist. It is intended for internal indices that are known to be valid.
func (g *Graph) MustVertex(id int) Vertex {
	v, err := g.Vertex(id)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind returns the kind of vertex id, or 0 if out of range.
func (g *Graph) Kind(id int) Kind {
	if id < 0 || id >= len(g.vertices) {
		return 0
	}
	return g.vertices[id].Kind
}

// VerticesOfKind returns the IDs of all vertices with the given kind, in
// ascending order.
func (g *Graph) VerticesOfKind(kind Kind) []int {
	var ids []int
	for _, v := range g.vertices {
		if v.Kind == kind {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// AddEdge inserts an undirected edge (u, v) with the given length. Adding an
// existing edge updates its length. Self loops are rejected.
func (g *Graph) AddEdge(u, v int, length float64) error {
	if u == v {
		return fmt.Errorf("self loop on vertex %d", u)
	}
	if err := g.checkID(u); err != nil {
		return err
	}
	if err := g.checkID(v); err != nil {
		return err
	}
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]float64)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]float64)
	}
	if _, exists := g.adj[u][v]; !exists {
		g.edges++
	}
	g.adj[u][v] = length
	g.adj[v][u] = length
	return nil
}

// RemoveEdge deletes the undirected edge (u, v). Removing a missing edge is
// a no-op.
func (g *Graph) RemoveEdge(u, v int) {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return
	}
	if _, exists := g.adj[u][v]; exists {
		delete(g.adj[u], v)
		delete(g.adj[v], u)
		g.edges--
	}
}

// IsolateVertex removes every edge incident to id, modelling a fail-silent
// node: the vertex remains but can no longer forward traffic.
func (g *Graph) IsolateVertex(id int) {
	if id < 0 || id >= len(g.adj) {
		return
	}
	for n := range g.adj[id] {
		delete(g.adj[n], id)
		g.edges--
	}
	g.adj[id] = nil
}

// HasEdge reports whether edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// EdgeLength returns the length of edge (u, v) and whether it exists.
func (g *Graph) EdgeLength(u, v int) (float64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	l, ok := g.adj[u][v]
	return l, ok
}

// Degree returns the number of edges incident to id.
func (g *Graph) Degree(id int) int {
	if id < 0 || id >= len(g.adj) {
		return 0
	}
	return len(g.adj[id])
}

// Neighbors returns the neighbor IDs of id in ascending order. The slice is
// freshly allocated; callers may modify it.
func (g *Graph) Neighbors(id int) []int {
	if id < 0 || id >= len(g.adj) {
		return nil
	}
	ns := make([]int, 0, len(g.adj[id]))
	for n := range g.adj[id] {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

// Edges returns all edges in canonical (U < V) form sorted by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for v, l := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v, Length: l})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Clone returns a deep copy sharing no mutable state with g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		vertices: make([]Vertex, len(g.vertices)),
		adj:      make([]map[int]float64, len(g.adj)),
		edges:    g.edges,
	}
	copy(c.vertices, g.vertices)
	for i, m := range g.adj {
		if m == nil {
			continue
		}
		cm := make(map[int]float64, len(m))
		for k, v := range m {
			cm[k] = v
		}
		c.adj[i] = cm
	}
	return c
}

// EmptyLike returns a graph with the same vertex set as g but no edges.
// NPTSN starts network construction from exactly this state (§III).
func (g *Graph) EmptyLike() *Graph {
	c := &Graph{
		vertices: make([]Vertex, len(g.vertices)),
		adj:      make([]map[int]float64, len(g.vertices)),
	}
	copy(c.vertices, g.vertices)
	return c
}

// Residual returns a copy of g with the vertices in failedNodes isolated and
// the edges in failedEdges removed. This is the network that remains after a
// failure scenario Gf.
func (g *Graph) Residual(failedNodes []int, failedEdges []Edge) *Graph {
	r := g.Clone()
	for _, id := range failedNodes {
		r.IsolateVertex(id)
	}
	for _, e := range failedEdges {
		r.RemoveEdge(e.U, e.V)
	}
	return r
}

// IsSubgraphOf reports whether every edge of g also exists in super. Vertex
// sets are assumed to be shared (same scenario), which holds throughout
// NPTSN since Gt and Gf are subgraphs of Gc over the same vertex indices.
func (g *Graph) IsSubgraphOf(super *Graph) bool {
	if g.NumVertices() > super.NumVertices() {
		return false
	}
	for u := range g.adj {
		for v := range g.adj[u] {
			if !super.HasEdge(u, v) {
				return false
			}
		}
	}
	return true
}

// Connected reports whether vertices s and d are in the same connected
// component.
func (g *Graph) Connected(s, d int) bool {
	if s == d {
		return true
	}
	if s < 0 || d < 0 || s >= len(g.adj) || d >= len(g.adj) {
		return false
	}
	seen := make([]bool, len(g.adj))
	queue := []int{s}
	seen[s] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for n := range g.adj[cur] {
			if n == d {
				return true
			}
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return false
}

// HopDistances returns BFS hop counts from src to every vertex; unreachable
// vertices get -1.
func (g *Graph) HopDistances(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= len(g.adj) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for n := range g.adj[cur] {
			if dist[n] == -1 {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// AdjacencyMatrix returns the |V|×|V| 0/1 adjacency matrix as a row-major
// float64 slice, the representation consumed by the GCN layer (Eq. 4).
func (g *Graph) AdjacencyMatrix() []float64 {
	n := len(g.vertices)
	m := make([]float64, n*n)
	for u := range g.adj {
		for v := range g.adj[u] {
			m[u*n+v] = 1
		}
	}
	return m
}

func (g *Graph) checkID(id int) error {
	if id < 0 || id >= len(g.vertices) {
		return fmt.Errorf("vertex %d out of range [0,%d)", id, len(g.vertices))
	}
	return nil
}
