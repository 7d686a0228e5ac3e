package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVirtualNodes is how many points each replica claims on the ring.
// More points smooth the key distribution; 128 keeps the worst replica
// within ~±20% of the mean key share at fleet sizes this coordinator
// targets, while membership changes stay O(vnodes · log points).
const defaultVirtualNodes = 128

// Ring is a consistent-hash ring over replica IDs. Keys (the service's
// job fingerprints) map to the replica owning the first ring point at or
// after the key's hash; adding a replica only moves keys onto it, and
// removing one only moves the keys it owned — the property that keeps the
// fleet's plan-cache locality intact as replicas join and leave.
//
// Ring is not safe for concurrent use; the coordinator guards it with its
// own mutex.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	id   string
}

// NewRing builds an empty ring with the given virtual-node count per
// replica (<= 0 selects the default).
func NewRing(virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = defaultVirtualNodes
	}
	return &Ring{vnodes: virtualNodes, members: make(map[string]bool)}
}

// ringHash maps a string to its position on the ring: FNV-64a finalized
// with the SplitMix64 mixer. Raw FNV output over the short, similar
// virtual-node labels clusters enough to leave 1.6× hot spots even at
// hundreds of points per replica; the finalizer's avalanche restores the
// uniform spacing consistent hashing's balance argument assumes.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a replica's virtual points; adding a member twice is a
// no-op.
func (r *Ring) Add(id string) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: ringHash(id + "#" + strconv.Itoa(v)), id: id})
	}
	sort.Slice(r.points, func(i, k int) bool { return r.points[i].hash < r.points[k].hash })
}

// Remove deletes a replica's virtual points; removing a non-member is a
// no-op.
func (r *Ring) Remove(id string) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Contains reports ring membership.
func (r *Ring) Contains(id string) bool { return r.members[id] }

// Len is the member count.
func (r *Ring) Len() int { return len(r.members) }

// Sequence returns every member exactly once, in the order their points
// appear walking the ring clockwise from the key's position: the home
// replica first, then each successive fallback. This is the fleet's
// failover order — when the home shard is down, the key degrades to the
// next replica on the ring rather than to an arbitrary one, so repeated
// routing decisions agree without coordination.
func (r *Ring) Sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && len(seq) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			seq = append(seq, p.id)
		}
	}
	return seq
}
