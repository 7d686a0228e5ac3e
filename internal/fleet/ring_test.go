package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like the service's job fingerprints (hex digests).
		keys[i] = fmt.Sprintf("fp-%08x", i*2654435761)
	}
	return keys
}

// home is the key's home replica, the head of its failover sequence that
// the coordinator routes by; "" on an empty ring.
func home(r *Ring, key string) string {
	if seq := r.Sequence(key); len(seq) > 0 {
		return seq[0]
	}
	return ""
}

func ownerCounts(r *Ring, keys []string) map[string]int {
	counts := make(map[string]int)
	for _, k := range keys {
		id := home(r, k)
		if id == "" {
			panic("empty ring")
		}
		counts[id]++
	}
	return counts
}

// TestRingBalance: with virtual nodes, no replica owns a grossly
// disproportionate share of the keyspace.
func TestRingBalance(t *testing.T) {
	for _, replicas := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			r := NewRing(0)
			for i := 0; i < replicas; i++ {
				r.Add(fmt.Sprintf("replica-%d", i))
			}
			keys := ringKeys(10000)
			counts := ownerCounts(r, keys)
			if len(counts) != replicas {
				t.Fatalf("%d replicas own keys, want all %d", len(counts), replicas)
			}
			mean := float64(len(keys)) / float64(replicas)
			for id, n := range counts {
				if f := float64(n); f < mean*0.5 || f > mean*1.5 {
					t.Errorf("%s owns %d keys, outside [%.0f, %.0f] around the mean %.0f",
						id, n, mean*0.5, mean*1.5, mean)
				}
			}
		})
	}
}

// TestRingJoinMovesKeysOnlyToNewcomer: adding a replica steals keys for
// the newcomer and nothing else — no key moves between existing replicas,
// and the stolen share is near 1/n.
func TestRingJoinMovesKeysOnlyToNewcomer(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	keys := ringKeys(10000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = home(r, k)
	}

	r.Add("replica-new")
	moved := 0
	for _, k := range keys {
		after := home(r, k)
		if after == before[k] {
			continue
		}
		moved++
		if after != "replica-new" {
			t.Fatalf("key %s moved %s → %s — between survivors, not to the newcomer", k, before[k], after)
		}
	}
	// Ideal steal is 1/5 of the keys; allow generous slack for hash noise.
	ideal := len(keys) / 5
	if moved < ideal/2 || moved > ideal*2 {
		t.Errorf("join moved %d keys, want ~%d (1/5 of %d)", moved, ideal, len(keys))
	}
}

// TestRingLeaveKeepsSurvivorKeys: removing a replica reassigns only the
// keys it owned; every other key stays put.
func TestRingLeaveKeepsSurvivorKeys(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	keys := ringKeys(10000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = home(r, k)
	}

	const victim = "replica-2"
	r.Remove(victim)
	for _, k := range keys {
		after := home(r, k)
		if before[k] == victim {
			if after == victim {
				t.Fatalf("key %s still owned by the removed replica", k)
			}
			continue
		}
		if after != before[k] {
			t.Fatalf("key %s moved %s → %s although its owner survived", k, before[k], after)
		}
	}
}

// TestRingSequence: the failover order starts at the home replica, covers
// every member exactly once.
func TestRingSequence(t *testing.T) {
	r := NewRing(0)
	members := []string{"a", "b", "c", "d"}
	for _, id := range members {
		r.Add(id)
	}
	for _, k := range ringKeys(100) {
		seq := r.Sequence(k)
		if len(seq) != len(members) {
			t.Fatalf("sequence for %s has %d members, want %d", k, len(seq), len(members))
		}
		seen := make(map[string]bool)
		for _, id := range seq {
			if seen[id] {
				t.Fatalf("sequence for %s repeats %s: %v", k, id, seq)
			}
			seen[id] = true
		}
	}
}

// TestRingEdgeCases: empty ring, single member, double add/remove.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if seq := r.Sequence("x"); seq != nil {
		t.Errorf("empty ring yields a sequence: %v", seq)
	}

	r.Add("solo")
	r.Add("solo") // idempotent
	if got := r.Len(); got != 1 {
		t.Fatalf("double add gives %d members", got)
	}
	if id := home(r, "anything"); id != "solo" {
		t.Fatalf("single-member ring routed to %q", id)
	}
	r.Remove("ghost") // no-op
	r.Remove("solo")
	r.Remove("solo") // idempotent
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("ring not empty after removals: %d members, %d points", r.Len(), len(r.points))
	}
}

// TestRingStableAcrossRejoin: a replica that leaves and rejoins gets
// exactly its old keys back — the property that keeps plan-cache locality
// through a crash/restart cycle.
func TestRingStableAcrossRejoin(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("replica-%d", i))
	}
	keys := ringKeys(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = home(r, k)
	}
	r.Remove("replica-1")
	r.Add("replica-1")
	for _, k := range keys {
		if after := home(r, k); after != before[k] {
			t.Fatalf("key %s moved %s → %s across a leave/rejoin", k, before[k], after)
		}
	}
}
