package nn

import (
	"math/rand"
	"testing"

	"repro/internal/raceflag"
)

// assertAllocFree runs f under testing.AllocsPerRun and fails when the
// steady-state allocation count is non-zero. The race runtime instruments
// allocations, so the guards skip themselves under -race.
func assertAllocFree(t *testing.T, name string, f func()) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	f() // warm layer-owned scratch before counting
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, n)
	}
}

// TestGCNForwardBackwardAllocFree guards the trunk hot path: after the
// first call sized the scratch buffers, Forward+Backward must not allocate.
func TestGCNForwardBackwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGCN(rng, 2, 3, 8, 2)
	n := 5
	adj := NewMatrix(n, n)
	for i := 0; i < n-1; i++ {
		adj.Set(i, i+1, 1)
		adj.Set(i+1, i, 1)
	}
	sHat := NormalizeAdjacency(adj)
	h := NewMatrix(n, 3)
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	dY := NewMatrix(n, 2)
	for i := range dY.Data {
		dY.Data[i] = rng.NormFloat64()
	}
	assertAllocFree(t, "gcn forward+backward", func() {
		g.Forward(sHat, h)
		g.Backward(dY)
	})
}

// TestMLPForwardBackwardAllocFree guards the dense head hot path.
func TestMLPForwardBackwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 6, []int{16, 16}, 4, Tanh)
	x := NewMatrix(1, 6)
	dY := NewMatrix(1, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range dY.Data {
		dY.Data[i] = rng.NormFloat64()
	}
	assertAllocFree(t, "mlp forward+backward", func() {
		m.Forward(x)
		m.Backward(dY, 6)
	})
}

// TestMaskedSoftmaxAllocFree guards the per-step sampling helpers: with a
// Scratch arena, masking, softmax, log-softmax and the policy-gradient
// helper allocate nothing.
func TestMaskedSoftmaxAllocFree(t *testing.T) {
	logits := []float64{0.3, -1.2, 2.5, 0.0, -0.4}
	mask := []bool{true, false, true, true, false}
	sc := NewScratch(len(logits))
	grad := make([]float64, len(logits))
	assertAllocFree(t, "masked softmax chain", func() {
		masked := MaskLogitsInto(sc.Masked, logits, mask)
		SoftmaxInto(sc.Probs, masked)
		LogSoftmaxInto(sc.LogProbs, masked)
		LogSoftmaxGradInto(grad, masked, 2)
	})
}
