//go:build !amd64

package nn

// useAsm is false off amd64: the kernels are the Go loops.
const useAsm = false

// rowProduct is rowGo; see the amd64 version for the contract.
func rowProduct(dst, a []float64, k, astride int, b []float64, ldb int) {
	rowGo(dst, a, k, astride, b, ldb)
}

// axpy is axpyGo.
func axpy(dst []float64, alpha float64, x []float64) { axpyGo(dst, alpha, x) }

// adamUpdate is adamGo.
func adamUpdate(p, g, m, v []float64, c *adamCoef) { adamGo(p, g, m, v, c) }
