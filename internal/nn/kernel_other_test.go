//go:build !amd64

package nn

// Off amd64 the kernels are the Go loops: one tier, nothing to switch.

var kernelTiers = []kernelTier{{name: "go", have: true}}

func selectTier(kernelTier) (restore func()) { return func() {} }
