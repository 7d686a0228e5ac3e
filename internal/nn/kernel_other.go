//go:build !amd64

package nn

// useAsm and useAVX512 are false off amd64: the kernels are the Go loops.
const useAsm, useAVX512 = false, false

// rowProduct is rowGo; see the amd64 version for the contract.
func rowProduct(dst, a []float64, k, astride int, b []float64, ldb int) {
	rowGo(dst, a, k, astride, b, ldb)
}

// rowSparse is rowSparseGo.
func rowSparse(dst, val []float64, idx []uint32, b []float64, ldb int) {
	rowSparseGo(dst, val, idx, b, ldb)
}

// sparseRowsAsm runs nothing: sparseRows calls rowSparse per row.
func sparseRowsAsm(dst []float64, ldd, n int, off []int32, val []float64, idx []uint32, b []float64, ldb int, add bool) bool {
	return false
}

// reluApply is reluGo.
func reluApply(dst, z []float64) { reluGo(dst, z) }

// reluBackward is reluBackGo.
func reluBackward(dst, dY, y []float64) { reluBackGo(dst, dY, y) }

// tanhBackward is tanhBackGo.
func tanhBackward(dst, dY, y []float64) { tanhBackGo(dst, dY, y) }

// addInto is addGo.
func addInto(dst, src []float64) { addGo(dst, src) }

// adamUpdate is adamGo.
func adamUpdate(p, g, m, v []float64, c *adamCoef) { adamGo(p, g, m, v, c) }

// blockRows is 0 off amd64: every product runs row by row.
func blockRows(k, n int) int { return 0 }

// rowsProduct computes blockRows(k, n) = 0 rows.
func rowsProduct(dst []float64, ldd, n int, a []float64, k, astride, rstride int, b []float64, ldb int) {
}
