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

// useAsm routes the row, sparse row and Adam kernels through the AVX2
// assembly. Under the race detector the Go loops run instead, so the
// detector still sees every kernel memory access. The kernel tests flip
// it to run both paths.
var useAsm = hasAVX2 && !raceflag.Enabled

//go:noescape
func rowAVX2(dst *float64, n int, a *float64, k, astride int, b *float64, ldb int)

//go:noescape
func rowSparseAVX2(dst *float64, n int, val *float64, idx *uint32, cnt int, b *float64, ldb int)

//go:noescape
func adamAVX2(p, grad, m, v *float64, n int, c *adamCoef)

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
