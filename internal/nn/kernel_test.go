package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// tableIIShapes are the Table II MLP layer shapes on ORION at a 64-step
// update batch: the 153-wide input (63 nodes × 2 embedding columns + 27
// parameter features) into 256, and 256 into 256.
var tableIIShapes = [][2]int{{153, 256}, {256, 256}}

const tableIIBatch = 64

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// BenchmarkNNKernelsTableII times the three dense products of one MLP layer
// of the PPO update — the forward x·W, the weight gradient xᵀ·dZ and the
// input gradient dZ·Wᵀ — and reports multiply-adds per nanosecond.
func BenchmarkNNKernelsTableII(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range tableIIShapes {
		in, out := sh[0], sh[1]
		x, w := randSlice(rng, tableIIBatch*in), randSlice(rng, in*out)
		dZ, y := randSlice(rng, tableIIBatch*out), make([]float64, tableIIBatch*out)
		gradW, dX := make([]float64, in*out), make([]float64, tableIIBatch*in)
		var acc, wT []float64
		products := []struct {
			name string
			run  func()
		}{
			{"forward", func() { matMul(y, x, w, in, out) }},
			{"xTdZ", func() { matMulATAdd(gradW, x, dZ, in, out, &acc) }},
			{"dZWT", func() { matMulBT(dX, dZ, w, out, in, &wT) }},
		}
		for _, p := range products {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", p.name, tableIIBatch, in, out), func(b *testing.B) {
				p.run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.run()
				}
				madds := float64(b.N) * tableIIBatch * float64(in*out)
				b.ReportMetric(madds/float64(b.Elapsed().Nanoseconds()), "madd/ns")
			})
		}
	}
}
