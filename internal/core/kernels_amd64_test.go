package core_test

import _ "unsafe" // for go:linkname

// useAVX512 is internal/nn's switch for its AVX-512 kernels. The package
// exports no knob for it; the goldens reach it to pin the AVX2 kernels as
// well on a CPU that runs AVX-512.
//
//go:linkname useAVX512 repro/internal/nn.useAVX512
var useAVX512 bool

// avx512Off turns the AVX-512 kernels off and returns the restore, with
// ok false (and nothing changed) when they were not in use.
func avx512Off() (restore func(), ok bool) {
	if !useAVX512 {
		return nil, false
	}
	useAVX512 = false
	return func() { useAVX512 = true }, true
}
