package graph

// IndexCombinations enumerates all k-element index subsets of {0..n-1} in
// deterministic lexicographic order, calling fn with a reused ascending
// buffer for each subset. The buffer must not be retained across calls;
// copy it if needed. fn may return false to stop enumeration early.
func IndexCombinations(n, k int, fn func(idx []int) bool) {
	if k < 0 || k > n {
		return
	}
	if k == 0 {
		fn(nil)
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) {
			return
		}
		// Advance the index vector.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Combinations enumerates all k-element subsets of items in deterministic
// lexicographic index order, calling fn with a reused buffer for each subset.
// The buffer must not be retained across calls; copy it if needed. fn may
// return false to stop enumeration early. It is the subset generator behind
// Algorithm 3's combinations(V^t_sw, i).
func Combinations(items []int, k int, fn func(subset []int) bool) {
	if k < 0 || k > len(items) {
		return
	}
	if k == 0 {
		fn(nil)
		return
	}
	buf := make([]int, k)
	IndexCombinations(len(items), k, func(idx []int) bool {
		for i, j := range idx {
			buf[i] = items[j]
		}
		return fn(buf)
	})
}
