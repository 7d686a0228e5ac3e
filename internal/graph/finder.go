package graph

import (
	"math"
	"sort"
	"sync"
)

// PathFinder is a reusable path-search engine over one graph: Dijkstra
// shortest paths and Yen's K-shortest-paths with all working state —
// adjacency snapshot, priority queue, distance/visited arrays, constraint
// stamps and path buffers — owned by the finder and recycled across calls.
// The scheduler runs a Dijkstra per heap pop worth of work thousands of
// times per NBF evaluation; routing those calls through one finder removes
// every per-call allocation of the naive Graph methods.
//
// A finder is bound to the graph state captured by the last Reset; mutating
// the graph afterwards requires another Reset. Returned paths (and the
// slices holding them) are borrowed finder scratch, valid until the next
// call on the same finder — callers that retain them must Clone. A finder
// is not safe for concurrent use.
type PathFinder struct {
	g *Graph
	n int

	// CSR adjacency snapshot: neighbors of u are nbrs[off[u]:off[u+1]],
	// sorted ascending (the deterministic tie-breaking order), with edge
	// lengths in the parallel lens run.
	off  []int
	nbrs []int
	lens []float64

	// Dijkstra state.
	dist []float64
	prev []int
	done []bool
	q    []pqItem

	// Constraint set (Yen's spur bans), cleared by bumping banGen.
	banStamp    []int
	banGen      int
	bannedEdges []Edge

	// seenStamp backs the allocation-free looplessness check.
	seenStamp []int
	seenGen   int

	// Path buffers: pathBuf holds the latest Dijkstra reconstruction,
	// totalBuf the assembled root+spur path; free recycles the buffers
	// claimed by results and candidates of previous calls.
	pathBuf  []int
	totalBuf []int
	free     [][]int

	result []Path
	cands  candList
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	id   int
	dist float64
}

type candidate struct {
	path Path
	len  float64
}

// candList orders candidates by (length, lexicographic path), the
// deterministic tie-breaking of Yen's candidate pool. Sorted via a pointer
// receiver so the interface conversion does not allocate.
type candList []candidate

func (c *candList) Len() int      { return len(*c) }
func (c *candList) Swap(i, j int) { (*c)[i], (*c)[j] = (*c)[j], (*c)[i] }
func (c *candList) Less(i, j int) bool {
	a, b := (*c)[i], (*c)[j]
	if a.len != b.len {
		return a.len < b.len
	}
	return lexLess(a.path, b.path)
}

// NewPathFinder returns an empty finder; Reset binds it to a graph.
func NewPathFinder() *PathFinder { return &PathFinder{} }

// finderPool recycles finders for the Graph-level convenience wrappers.
var finderPool = sync.Pool{New: func() any { return NewPathFinder() }}

// AcquireFinder returns a pooled finder bound to g. Release it with
// ReleaseFinder when done with its results.
func AcquireFinder(g *Graph) *PathFinder {
	f := finderPool.Get().(*PathFinder)
	f.Reset(g)
	return f
}

// ReleaseFinder returns a finder to the pool; its outstanding results become
// invalid.
func ReleaseFinder(f *PathFinder) {
	f.g = nil // do not pin the graph in the pool
	finderPool.Put(f)
}

func ensureInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func ensureBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// Reset snapshots g's adjacency into the finder's CSR arrays and sizes the
// search state, reusing all previously grown buffers.
func (f *PathFinder) Reset(g *Graph) {
	f.g = g
	n := g.NumVertices()
	f.n = n

	f.off = ensureInts(f.off, n+1)
	total := 0
	for u := 0; u < n; u++ {
		f.off[u] = total
		total += len(g.adj[u])
	}
	f.off[n] = total
	f.nbrs = ensureInts(f.nbrs, total)
	f.lens = ensureFloats(f.lens, total)
	for u := 0; u < n; u++ {
		k := f.off[u]
		for v, l := range g.adj[u] {
			f.nbrs[k] = v
			f.lens[k] = l
			k++
		}
		// Insertion-sort the run ascending by neighbor ID (runs are node
		// degrees, i.e. tiny); map iteration order never leaks out.
		for i := f.off[u] + 1; i < k; i++ {
			nb, ln := f.nbrs[i], f.lens[i]
			j := i - 1
			for j >= f.off[u] && f.nbrs[j] > nb {
				f.nbrs[j+1], f.lens[j+1] = f.nbrs[j], f.lens[j]
				j--
			}
			f.nbrs[j+1], f.lens[j+1] = nb, ln
		}
	}

	f.dist = ensureFloats(f.dist, n)
	f.prev = ensureInts(f.prev, n)
	f.done = ensureBools(f.done, n)
	// Stamp arrays may carry stamps from earlier bindings; the generation
	// counters only ever increase, so stale stamps can never match.
	f.banStamp = ensureInts(f.banStamp, n)
	f.seenStamp = ensureInts(f.seenStamp, n)
}

// recycle reclaims the path buffers handed out by the previous call.
func (f *PathFinder) recycle() {
	for _, p := range f.result {
		f.free = append(f.free, p)
	}
	f.result = f.result[:0]
	for _, c := range f.cands {
		f.free = append(f.free, c.path)
	}
	f.cands = f.cands[:0]
}

// claim copies p into a recycled buffer the finder owns.
func (f *PathFinder) claim(p []int) Path {
	var buf []int
	if n := len(f.free); n > 0 {
		buf = f.free[n-1][:0]
		f.free = f.free[:n-1]
	}
	return append(buf, p...)
}

func (f *PathFinder) clearConstraints() {
	f.banGen++
	f.bannedEdges = f.bannedEdges[:0]
}

func (f *PathFinder) banNode(id int) { f.banStamp[id] = f.banGen }

func (f *PathFinder) banEdge(e Edge) { f.bannedEdges = append(f.bannedEdges, e.Canonical()) }

func (f *PathFinder) nodeBanned(id int) bool { return f.banStamp[id] == f.banGen }

func (f *PathFinder) edgeBanned(u, v int) bool {
	e := Edge{U: u, V: v}.Canonical()
	for _, b := range f.bannedEdges {
		if b.U == e.U && b.V == e.V {
			return true
		}
	}
	return false
}

// loopless reports whether p visits no vertex twice (stamp-based, no map).
func (f *PathFinder) loopless(p []int) bool {
	f.seenGen++
	for _, v := range p {
		if f.seenStamp[v] == f.seenGen {
			return false
		}
		f.seenStamp[v] = f.seenGen
	}
	return true
}

// pushItem and popItem implement the binary heap with exactly the sift
// order of container/heap over the old pq type, so pop order — and with it
// every tie-broken path — is bit-identical to the previous implementation.
func (f *PathFinder) pushItem(it pqItem) {
	f.q = append(f.q, it)
	j := len(f.q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(f.q[j].dist < f.q[i].dist) {
			break
		}
		f.q[i], f.q[j] = f.q[j], f.q[i]
		j = i
	}
}

func (f *PathFinder) popItem() pqItem {
	n := len(f.q) - 1
	f.q[0], f.q[n] = f.q[n], f.q[0]
	it := f.q[n]
	f.q = f.q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && f.q[r].dist < f.q[l].dist {
			j = r
		}
		if !(f.q[j].dist < f.q[i].dist) {
			break
		}
		f.q[i], f.q[j] = f.q[j], f.q[i]
		i = j
	}
	return it
}

// dijkstra runs the constrained shortest-path search under the current ban
// set and returns the path in f.pathBuf (borrowed until the next search).
func (f *PathFinder) dijkstra(s, d int) (Path, error) {
	n := f.n
	if s < 0 || s >= n || d < 0 || d >= n {
		return nil, ErrNoPath
	}
	if f.nodeBanned(s) || f.nodeBanned(d) {
		return nil, ErrNoPath
	}
	if s == d {
		f.pathBuf = append(f.pathBuf[:0], s)
		return f.pathBuf, nil
	}
	for i := 0; i < n; i++ {
		f.dist[i] = math.Inf(1)
		f.prev[i] = -1
		f.done[i] = false
	}
	f.dist[s] = 0
	f.q = append(f.q[:0], pqItem{id: s, dist: 0})
	for len(f.q) > 0 {
		cur := f.popItem()
		if f.done[cur.id] {
			continue
		}
		f.done[cur.id] = true
		if cur.id == d {
			break
		}
		// Neighbors ascend within the CSR run: deterministic tie-breaking.
		for k := f.off[cur.id]; k < f.off[cur.id+1]; k++ {
			nb := f.nbrs[k]
			if f.done[nb] || f.nodeBanned(nb) || f.edgeBanned(cur.id, nb) {
				continue
			}
			nd := f.dist[cur.id] + f.lens[k]
			if nd < f.dist[nb] || (nd == f.dist[nb] && f.prev[nb] > cur.id && f.prev[nb] != -1) {
				f.dist[nb] = nd
				f.prev[nb] = cur.id
				f.pushItem(pqItem{id: nb, dist: nd})
			}
		}
	}
	if math.IsInf(f.dist[d], 1) {
		return nil, ErrNoPath
	}
	f.pathBuf = f.pathBuf[:0]
	for at := d; at != -1; at = f.prev[at] {
		f.pathBuf = append(f.pathBuf, at)
	}
	for i, j := 0, len(f.pathBuf)-1; i < j; i, j = i+1, j-1 {
		f.pathBuf[i], f.pathBuf[j] = f.pathBuf[j], f.pathBuf[i]
	}
	return f.pathBuf, nil
}

// ShortestPath returns the minimum-length path from s to d on the bound
// graph. The result is borrowed finder scratch.
func (f *PathFinder) ShortestPath(s, d int) (Path, error) {
	f.recycle()
	f.clearConstraints()
	return f.dijkstra(s, d)
}

// KShortestPaths runs Yen's algorithm on the bound graph. Paths come back
// in non-decreasing length order with deterministic tie-breaking, exactly
// as Graph.KShortestPaths produces them; the returned slice and paths are
// borrowed finder scratch, valid until the next call.
func (f *PathFinder) KShortestPaths(s, d, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	f.recycle()
	f.clearConstraints()
	first, err := f.dijkstra(s, d)
	if err != nil {
		return nil, err
	}
	f.result = append(f.result, f.claim(first))

	for len(f.result) < k {
		prev := f.result[len(f.result)-1]
		// Each vertex of the previous path except the destination is a spur
		// node.
		for i := 0; i < len(prev)-1; i++ {
			spur := prev[i]
			root := prev[:i+1]

			f.clearConstraints()
			// Ban edges that would recreate a previously found path sharing
			// this root.
			for _, r := range f.result {
				if len(r) > i && r[:i+1].Equal(root) {
					f.banEdge(Edge{U: r[i], V: r[i+1]})
				}
			}
			// Ban root vertices (except the spur) to keep paths loopless.
			for _, v := range root[:len(root)-1] {
				f.banNode(v)
			}

			spurPath, err := f.dijkstra(spur, d)
			if err != nil {
				continue
			}
			f.totalBuf = append(f.totalBuf[:0], root[:len(root)-1]...)
			f.totalBuf = append(f.totalBuf, spurPath...)
			total := Path(f.totalBuf)
			if !f.loopless(total) || havePath(f.result, total) || f.haveCandidate(total) {
				continue
			}
			f.cands = append(f.cands, candidate{path: f.claim(total), len: total.Length(f.g)})
		}
		if len(f.cands) == 0 {
			break
		}
		sort.Stable(&f.cands)
		f.result = append(f.result, f.cands[0].path)
		f.cands = f.cands[1:]
	}
	return f.result, nil
}

func havePath(ps []Path, p Path) bool {
	for _, q := range ps {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

func (f *PathFinder) haveCandidate(p Path) bool {
	for _, c := range f.cands {
		if c.path.Equal(p) {
			return true
		}
	}
	return false
}
