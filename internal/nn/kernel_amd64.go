package nn

import "repro/internal/raceflag"

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1 (OSXSAVE, AVX), XGETBV
// (XMM and YMM state enabled) and CPUID leaf 7 (AVX2).
var hasAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}()

// hasAVX512 reports whether the CPU also implements AVX-512F and the OS
// saves the opmask and ZMM registers: XGETBV (XCR0 bits 1–2 and 5–7: XMM,
// YMM, opmask, the upper halves of ZMM0–15, and ZMM16–31) and CPUID leaf
// 7 (EBX bit 16).
var hasAVX512 = hasAVX2 && func() bool {
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}()

// useAsm routes the row, sparse row and Adam kernels through the AVX2
// assembly. Under the race detector the Go loops run instead, so the
// detector still sees every kernel memory access. The kernel tests flip
// it to run each path.
var useAsm = hasAVX2 && !raceflag.Enabled

// useAVX512 adds, where useAsm holds, the AVX-512 row-block products, the
// per-block sparse products and the element-wise passes. The kernel tests
// flip it to run each path.
var useAVX512 = useAsm && hasAVX512

//go:noescape
func rowAVX2(dst *float64, n int, a *float64, k, astride int, b *float64, ldb int)

//go:noescape
func rowSparseAVX2(dst *float64, n int, val *float64, idx *uint32, cnt int, b *float64, ldb int)

//go:noescape
func adamAVX2(p, grad, m, v *float64, n int, c *adamCoef)

//go:noescape
func rows4AVX512(dst *float64, ldd, n int, a *float64, k, astride, rstride int, b *float64, ldb int)

//go:noescape
func narrow8AVX512(dst *float64, ldd, n int, a *float64, k, astride, rstride int, b *float64, ldb int)

//go:noescape
func reluAVX512(dst, z *float64, n int)

//go:noescape
func reluBackAVX512(dst, dY, y *float64, n int)

//go:noescape
func tanhBackAVX512(dst, dY, y *float64, n int)

//go:noescape
func addAVX512(dst, src *float64, n int)

//go:noescape
func sparseRowsAVX512(dst *float64, ldd, n int, off *int32, rows int, val *float64, idx *uint32, b *float64, ldb int, add bool)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// rowProduct sets dst[j] = Σ_kk a[kk·astride]·b[kk·ldb+j] for kk < k,
// summed from +0 in kk order and skipping zero elements of a: one output
// row of a×b (astride 1) or of aᵀ×b (astride = a's width). The assembly
// takes the widest multiple of 4 columns; narrower rows and the last
// columns run the Go loop.
func rowProduct(dst, a []float64, k, astride int, b []float64, ldb int) {
	n := len(dst) &^ 3
	if !useAsm || n == 0 || k <= 0 {
		rowGo(dst, a, k, astride, b, ldb)
		return
	}
	if astride < 0 || ldb < 0 || (k-1)*astride >= len(a) || (k-1)*ldb+len(dst) > len(b) {
		panic("nn: row kernel operands out of range")
	}
	rowAVX2(&dst[0], n, &a[0], k, astride, &b[0], ldb)
	if n < len(dst) {
		rowGo(dst[n:], a, k, astride, b[n:], ldb)
	}
}

// rowSparse sets dst[j] = Σ_e val[e]·b[idx[e]·ldb+j], summed from +0 in e
// order: one output row of a sparse matrix, given by the values of its
// nonzero entries and their indices, times b. The assembly takes the widest
// multiple of 4 columns; narrower rows and the last columns run the Go
// loop.
func rowSparse(dst, val []float64, idx []uint32, b []float64, ldb int) {
	n := len(dst) &^ 3
	if !useAsm || n == 0 || len(val) == 0 {
		rowSparseGo(dst, val, idx, b, ldb)
		return
	}
	var top uint32
	for _, i := range idx[:len(val)] {
		top = max(top, i)
	}
	if ldb < 0 || int(top)*ldb+len(dst) > len(b) {
		panic("nn: sparse row kernel operands out of range")
	}
	rowSparseAVX2(&dst[0], n, &val[0], &idx[0], len(val), &b[0], ldb)
	if n < len(dst) {
		rowSparseGo(dst[n:], val, idx, b[n:], ldb)
	}
}

// blockRows is how many rows of an n-column product over k steps
// rowsProduct computes at once: 8, one per vector lane, when n ≤ 3, and
// otherwise 4, sharing each load of b. It is 0 when the AVX-512 kernels
// are not in use or the product is empty.
func blockRows(k, n int) int {
	switch {
	case !useAsm || !useAVX512 || k <= 0 || n <= 0:
		return 0
	case n <= 3:
		return 8
	}
	return 4
}

// rowsProduct computes g = blockRows(k, n) rows of a product at once:
// dst[r·ldd+j] = Σ_kk a[r·rstride+kk·astride]·b[kk·ldb+j] for r < g, j < n
// and kk < k, each row exactly as rowProduct computes it. The rows of a
// product's a operand are rstride apart and its steps astride apart: a×b
// reads rows of a (rstride k, astride 1), aᵀ×b columns (rstride 1,
// astride a's width).
func rowsProduct(dst []float64, ldd, n int, a []float64, k, astride, rstride int, b []float64, ldb int) {
	g := blockRows(k, n)
	if astride < 0 || rstride < 0 || ldb < 0 || ldd < 0 ||
		(g-1)*rstride+(k-1)*astride >= len(a) || (k-1)*ldb+n > len(b) || (g-1)*ldd+n > len(dst) {
		panic("nn: row block kernel operands out of range")
	}
	if g == 4 {
		rows4AVX512(&dst[0], ldd, n, &a[0], k, astride, rstride, &b[0], ldb)
	} else {
		narrow8AVX512(&dst[0], ldd, n, &a[0], k, astride, rstride, &b[0], ldb)
	}
}

// adamUpdate is adamGo, four elements at a time in the assembly.
func adamUpdate(p, g, m, v []float64, c *adamCoef) {
	n := len(p) &^ 3
	if !useAsm || n == 0 {
		adamGo(p, g, m, v, c)
		return
	}
	if len(g) < len(p) || len(m) < len(p) || len(v) < len(p) {
		panic("nn: adam operands shorter than the parameters")
	}
	adamAVX2(&p[0], &g[0], &m[0], &v[0], n, c)
	if n < len(p) {
		adamGo(p[n:], g[n:], m[n:], v[n:], c)
	}
}

// sparseRowsAsm runs sparseRows in one AVX-512 call, and reports whether
// it did: only where the AVX-512 kernels are in use. sparseRows, its only
// caller, has checked the operands and that there are rows and columns.
func sparseRowsAsm(dst []float64, ldd, n int, off []int32, val []float64, idx []uint32, b []float64, ldb int, add bool) bool {
	if !useAVX512 {
		return false
	}
	var v *float64
	var ix *uint32
	if len(val) > 0 { // an empty store leaves every row without entries
		v, ix = &val[0], &idx[0]
	}
	var bp *float64
	if len(b) > 0 {
		bp = &b[0]
	}
	sparseRowsAVX512(&dst[0], ldd, n, &off[0], len(off)-1, v, ix, bp, ldb, add)
	return true
}

// reluApply is reluGo, eight elements at a time where the AVX-512
// kernels are in use.
func reluApply(dst, z []float64) {
	dst = dst[:len(z)]
	if !useAVX512 || len(z) == 0 {
		reluGo(dst, z)
		return
	}
	reluAVX512(&dst[0], &z[0], len(z))
}

// reluBackward is reluBackGo, eight elements at a time where the AVX-512
// kernels are in use.
func reluBackward(dst, dY, y []float64) {
	dY, y = dY[:len(dst)], y[:len(dst)]
	if !useAVX512 || len(dst) == 0 {
		reluBackGo(dst, dY, y)
		return
	}
	reluBackAVX512(&dst[0], &dY[0], &y[0], len(dst))
}

// tanhBackward is tanhBackGo, eight elements at a time where the AVX-512
// kernels are in use.
func tanhBackward(dst, dY, y []float64) {
	dY, y = dY[:len(dst)], y[:len(dst)]
	if !useAVX512 || len(dst) == 0 {
		tanhBackGo(dst, dY, y)
		return
	}
	tanhBackAVX512(&dst[0], &dY[0], &y[0], len(dst))
}

// addInto adds src[i] into dst[i] for i < len(dst): addGo, eight elements
// at a time where the AVX-512 kernels are in use.
func addInto(dst, src []float64) {
	src = src[:len(dst)]
	if !useAVX512 || len(dst) == 0 {
		addGo(dst, src)
		return
	}
	addAVX512(&dst[0], &src[0], len(dst))
}
