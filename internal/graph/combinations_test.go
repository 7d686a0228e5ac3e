package graph

import (
	"testing"
)

func collectCombinations(items []int, k int) [][]int {
	var out [][]int
	Combinations(items, k, func(s []int) bool {
		c := make([]int, len(s))
		copy(c, s)
		out = append(out, c)
		return true
	})
	return out
}

func TestCombinationsEnumeratesAll(t *testing.T) {
	got := collectCombinations([]int{1, 2, 3, 4}, 2)
	want := [][]int{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("got %d combinations, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combination %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestCombinationsEdgeCases(t *testing.T) {
	if got := collectCombinations([]int{1, 2}, 0); len(got) != 1 || got[0] != nil && len(got[0]) != 0 {
		t.Fatalf("k=0: %v, want one empty subset", got)
	}
	if got := collectCombinations([]int{1, 2}, 3); got != nil {
		t.Fatalf("k>n: %v, want none", got)
	}
	if got := collectCombinations([]int{1, 2}, -1); got != nil {
		t.Fatalf("k<0: %v, want none", got)
	}
	if got := collectCombinations([]int{7}, 1); len(got) != 1 || got[0][0] != 7 {
		t.Fatalf("singleton: %v", got)
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	count := 0
	Combinations([]int{1, 2, 3, 4, 5}, 2, func(s []int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestCombinationsCountsMatch(t *testing.T) {
	for n := 0; n <= 8; n++ {
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		want := 1 // C(n, 0)
		for k := 0; k <= n; k++ {
			if k > 0 {
				want = want * (n - k + 1) / k
			}
			got := len(collectCombinations(items, k))
			if got != want {
				t.Fatalf("C(%d,%d): enumerated %d, computed %d", n, k, got, want)
			}
		}
	}
}
