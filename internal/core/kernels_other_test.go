//go:build !amd64

package core_test

// avx512Off reports ok false off amd64: there are no AVX-512 kernels.
func avx512Off() (restore func(), ok bool) { return nil, false }
