package nn

import "math"

// The Go reference kernels. Every product in the package reduces to these
// two loops, one over a dense row and one over a row's nonzero entries (or,
// for dZ·Wᵀ off the vector path, matMulBT's dot products, which perform
// the same operations per output element), and every element-wise pass of
// the update to the loops after them; the amd64 assembly in kernel_amd64.s
// reproduces them bit for bit.

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

// sparseRows computes a block of rows of a sparse product: for each
// r < len(off)−1 and j < n, the sum Σ_e val[e]·b[idx[e]·ldb+j] over
// off[r] ≤ e < off[r+1], from +0 in e order, is stored in dst[r·ldd+j],
// or with add added to it through the scratch row (n long). off must rise
// within [0, len(val)], and every idx[e] lie below top, as sparseBlocks
// keeps them: the operands are checked once against that shape, not per
// row. One assembly call takes the whole block where the AVX-512 kernels
// are in use; otherwise each row is a rowSparse call.
func sparseRows(dst []float64, ldd, n int, off []int32, val []float64, idx []uint32, top int, b []float64, ldb int, add bool, row []float64) {
	rows := len(off) - 1
	if rows <= 0 || n <= 0 {
		return
	}
	if ldd < 0 || ldb < 0 || (rows-1)*ldd+n > len(dst) || top > 0 && (top-1)*ldb+n > len(b) ||
		off[0] < 0 || int(off[rows]) > min(len(val), len(idx)) {
		panic("nn: sparse block operands out of range")
	}
	if sparseRowsAsm(dst, ldd, n, off, val, idx, b, ldb, add) {
		return
	}
	for r := 0; r < rows; r++ {
		e0, e1 := off[r], off[r+1]
		out := dst[r*ldd : r*ldd+n]
		if add {
			rowSparse(row[:n], val[e0:e1], idx[e0:e1], b, ldb)
			addInto(out, row)
		} else {
			rowSparse(out, val[e0:e1], idx[e0:e1], b, ldb)
		}
	}
}

// reluGo sets dst[i] = max(0, z[i]); dst may alias z. A mask clears the
// bits of negative inputs, with no branch to mispredict; −0 and NaN
// compare false and pass through.
func reluGo(dst, z []float64) {
	dst = dst[:len(z)]
	for i, v := range z {
		dst[i] = math.Float64frombits(math.Float64bits(v) &^ -b2u(v < 0))
	}
}

// reluBackGo sets dst[i] = dY[i]·1 where y[i] > 0 and dY[i]·0 elsewhere,
// the factor selected by a mask rather than a branch; dst may alias dY or
// y. dY·0, not the constant 0: keeps zero signs and NaN propagation
// bit-identical to the Hadamard formulation.
func reluBackGo(dst, dY, y []float64) {
	dY, y = dY[:len(dst)], y[:len(dst)]
	one := math.Float64bits(1)
	for i, v := range y {
		dst[i] = dY[i] * math.Float64frombits(one&-b2u(v > 0))
	}
}

// tanhBackGo sets dst[i] = dY[i]·(1 − y[i]·y[i]); dst may alias dY or y.
func tanhBackGo(dst, dY, y []float64) {
	dY, y = dY[:len(dst)], y[:len(dst)]
	for i, v := range y {
		dst[i] = dY[i] * (1 - v*v)
	}
}

// addGo adds src[i] into dst[i] for i < len(dst).
func addGo(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
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
