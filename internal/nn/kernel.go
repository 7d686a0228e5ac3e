package nn

// The Go reference kernels. Every product in the package reduces to these
// two loops, one over a dense row and one over a row's nonzero entries (or,
// for dZ·Wᵀ off the vector path, matMulBT's dot products, which perform
// the same operations per output element), and the amd64 assembly in
// kernel_amd64.s reproduces them bit for bit.

// rowGo sets dst[j] = Σ_kk a[kk·astride]·b[kk·ldb+j] for kk < k, summed
// from +0 in kk order, skipping zero elements of a.
func rowGo(dst, a []float64, k, astride int, b []float64, ldb int) {
	if len(dst) < 4 {
		rowNarrow(dst, a, k, astride, b, ldb)
		return
	}
	clear(dst)
	for kk := 0; kk < k; kk++ {
		av := a[kk*astride]
		if av == 0 {
			continue
		}
		brow := b[kk*ldb:][:len(dst)]
		for j, bv := range brow {
			dst[j] += av * bv
		}
	}
}

// narrowChunk is how many steps of k rowNarrow compacts at a time: its
// stack scratch holds one chunk.
const narrowChunk = 64

// rowNarrow is rowGo for rows of at most 3 columns (the critic head, the
// 2-wide node embedding and its weight gradient, vector tails). A chunk of
// steps is first compacted, without a branch, to the indices of the
// nonzero elements of a; the sums then run over only those, in kk order,
// kept in registers. After a ReLU about half of the a elements are zero,
// so a test per step would mispredict often.
func rowNarrow(dst, a []float64, k, astride int, b []float64, ldb int) {
	n := len(dst)
	if n == 0 {
		return
	}
	var c0, c1, c2 float64
	var idx [narrowChunk]int32
	for k0 := 0; k0 < k; k0 += narrowChunk {
		cnt := 0
		for kk := k0; kk < min(k0+narrowChunk, k); kk++ {
			idx[cnt] = int32(kk)
			cnt += int(b2u(a[kk*astride] != 0))
		}
		switch n {
		case 1:
			for _, kk := range idx[:cnt] {
				c0 += a[int(kk)*astride] * b[int(kk)*ldb]
			}
		case 2:
			for _, kk := range idx[:cnt] {
				av, brow := a[int(kk)*astride], b[int(kk)*ldb:][:2]
				c0 += av * brow[0]
				c1 += av * brow[1]
			}
		default:
			for _, kk := range idx[:cnt] {
				av, brow := a[int(kk)*astride], b[int(kk)*ldb:][:3]
				c0 += av * brow[0]
				c1 += av * brow[1]
				c2 += av * brow[2]
			}
		}
	}
	dst[0] = c0
	if n > 1 {
		dst[1] = c1
	}
	if n > 2 {
		dst[2] = c2
	}
}

// rowSparseGo sets dst[j] = Σ_e val[e]·b[idx[e]·ldb+j], summed from +0
// in e order.
func rowSparseGo(dst, val []float64, idx []uint32, b []float64, ldb int) {
	clear(dst)
	idx = idx[:len(val)]
	for e, v := range val {
		brow := b[int(idx[e])*ldb:][:len(dst)]
		for j, bv := range brow {
			dst[j] += v * bv
		}
	}
}

// b2u is 1 for true and 0 for false. The compiler emits it as a flag set,
// with no branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}
