package graph

import (
	"errors"
)

// ErrNoPath is returned when no path exists between the requested endpoints.
var ErrNoPath = errors.New("no path between endpoints")

// Path is an ordered vertex sequence from source to destination.
type Path []int

// Source returns the first vertex of the path, or -1 if empty.
func (p Path) Source() int {
	if len(p) == 0 {
		return -1
	}
	return p[0]
}

// Dest returns the last vertex of the path, or -1 if empty.
func (p Path) Dest() int {
	if len(p) == 0 {
		return -1
	}
	return p[len(p)-1]
}

// Edges returns the canonical edges traversed by the path. Lengths are
// looked up from g; edges absent from g get length 0 (useful when a path was
// computed on a larger connection graph).
func (p Path) Edges(g *Graph) []Edge {
	if len(p) < 2 {
		return nil
	}
	es := make([]Edge, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		l, _ := g.EdgeLength(p[i], p[i+1])
		es = append(es, Edge{U: p[i], V: p[i+1], Length: l}.Canonical())
	}
	return es
}

// Length returns the total edge length of the path in g. Missing edges
// contribute zero.
func (p Path) Length(g *Graph) float64 {
	var sum float64
	for i := 0; i+1 < len(p); i++ {
		l, _ := g.EdgeLength(p[i], p[i+1])
		sum += l
	}
	return sum
}

// Hops returns the hop count (number of edges) of the path.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Contains reports whether the path visits vertex id.
func (p Path) Contains(id int) bool {
	for _, v := range p {
		if v == id {
			return true
		}
	}
	return false
}

// Loopless reports whether the path visits no vertex twice.
func (p Path) Loopless() bool {
	seen := make(map[int]struct{}, len(p))
	for _, v := range p {
		if _, dup := seen[v]; dup {
			return false
		}
		seen[v] = struct{}{}
	}
	return true
}

// Equal reports element-wise equality of two paths.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// ShortestPath returns the minimum-length path from s to d using edge
// lengths as weights (ties broken deterministically by vertex ID). It
// returns ErrNoPath when d is unreachable. The result is freshly allocated;
// hot paths should hold a PathFinder instead.
func (g *Graph) ShortestPath(s, d int) (Path, error) {
	f := AcquireFinder(g)
	defer ReleaseFinder(f)
	p, err := f.ShortestPath(s, d)
	if err != nil {
		return nil, err
	}
	return p.Clone(), nil
}
