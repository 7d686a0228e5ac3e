package nn

// The Go reference kernels. Every product in the package reduces to these
// two loops (or, for dZ·Wᵀ off the vector path, matMulBT's dot products,
// which perform the same operations per output element), and the amd64
// assembly in kernel_amd64.s reproduces them bit for bit.

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

// rowNarrow is rowGo for rows of at most 3 columns (the critic head, the
// 2-wide node embedding, vector tails). The sums stay in registers rather
// than making a store-to-load round trip through dst for every kk.
func rowNarrow(dst, a []float64, k, astride int, b []float64, ldb int) {
	n := len(dst)
	if n == 0 {
		return
	}
	var c0, c1, c2 float64
	for kk := 0; kk < k; kk++ {
		av := a[kk*astride]
		if av == 0 {
			continue
		}
		brow := b[kk*ldb:][:n]
		c0 += av * brow[0]
		if n > 1 {
			c1 += av * brow[1]
		}
		if n > 2 {
			c2 += av * brow[2]
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

// axpyGo adds alpha·x[j] into dst[j] for j < len(dst).
func axpyGo(dst []float64, alpha float64, x []float64) {
	x = x[:len(dst)]
	for j, xv := range x {
		dst[j] += alpha * xv
	}
}
