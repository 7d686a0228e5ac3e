package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// The AVX2 kernels must reproduce the Go loops bit for bit. Every check
// below runs one product twice, once on each path, and compares them with
// sameBits: Float64bits element by element, NaN payloads aside.

// bothPaths runs f on the Go loops, then on the assembly, restoring the
// selection afterwards.
func bothPaths(f func()) {
	saved := useAsm
	defer func() { useAsm = saved }()
	useAsm = false
	f()
	useAsm = true
	f()
}

// checkKernels compares both paths on every product of the package for an
// m×k by k×n shape whose operands come from r (ldb ≥ n pads b's rows), and
// on an Adam step over n parameters.
func checkKernels(t *testing.T, r *kernelValues, m, k, n, ldb int) {
	t.Helper()
	shape := fmt.Sprintf("m=%d k=%d n=%d ldb=%d", m, k, n, ldb)
	a, b := r.fill(m*k), r.fill(k*n)
	var outs [2][]float64

	// matMul: dst (m×n) = a (m×k) × b (k×n).
	path := 0
	bothPaths(func() {
		outs[path] = r.fill(m * n) // garbage the product must overwrite
		matMul(outs[path], a, b, k, n)
		path++
	})
	sameBits(t, "matMul "+shape, outs[0], outs[1])

	// rowProduct with padded b rows: one row of a×b[:, :n].
	if k > 0 {
		bp := r.fill((k-1)*ldb + n)
		path = 0
		bothPaths(func() {
			outs[path] = make([]float64, n)
			rowProduct(outs[path], a, k, 1, bp, ldb)
			path++
		})
		sameBits(t, "rowProduct "+shape, outs[0], outs[1])
	}

	// matMulATAdd: dst (k×n) += aᵀ (k×m) × c (m×n), a read down its
	// columns (stride k).
	c, dst0 := r.fill(m*n), r.fill(k*n)
	path = 0
	bothPaths(func() {
		outs[path] = append([]float64(nil), dst0...)
		var acc []float64
		matMulATAdd(outs[path], a, c, k, n, &acc)
		path++
	})
	sameBits(t, "matMulATAdd "+shape, outs[0], outs[1])

	// dZ·Wᵀ: dst (m×n) = a (m×k) × wᵀ for w (n×k), the Go path's dot
	// products against the asm path's row kernel on a transposed copy.
	w := r.fill(n * k)
	path = 0
	bothPaths(func() {
		outs[path] = r.fill(m * n)
		var bt []float64
		matMulBT(outs[path], a, w, k, n, &bt)
		path++
	})
	sameBits(t, "matMulBT "+shape, outs[0], outs[1])

	// sparseBlocks: a stored as one m×k block, times b, and its transpose
	// times c added into dst.
	var s sparseBlocks
	s.reset(m, k, m*k)
	s.appendBlock(a)
	path = 0
	bothPaths(func() {
		outs[path] = r.fill(m * n)
		s.mulInto(outs[path], 0, b, n, n)
		path++
	})
	sameBits(t, "sparseBlocks.mulInto "+shape, outs[0], outs[1])
	dst1 := r.fill(k * n)
	path = 0
	bothPaths(func() {
		outs[path] = append([]float64(nil), dst1...)
		s.atAdd(outs[path], 0, c, n, make([]float64, n), 0, k)
		path++
	})
	sameBits(t, "sparseBlocks.atAdd "+shape, outs[0], outs[1])

	// Adam: one step on n parameters, with coefficients from r too.
	p, g, mom, vel := r.fill(n), r.fill(n), r.fill(n), r.fill(n)
	coef := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999, bc1: 0.1, bc2: 0.001, lr: r.next(), eps: 1e-8}
	var moms, vels [2][]float64
	path = 0
	bothPaths(func() {
		outs[path] = append([]float64(nil), p...)
		moms[path], vels[path] = append([]float64(nil), mom...), append([]float64(nil), vel...)
		adamUpdate(outs[path], g, moms[path], vels[path], &coef)
		path++
	})
	sameBits(t, "adam params "+shape, outs[0], outs[1])
	sameBits(t, "adam first moments "+shape, moms[0], moms[1])
	sameBits(t, "adam second moments "+shape, vels[0], vels[1])
}

// TestKernelsMatchGoBitForBit covers every tail length 0–67 (both vector
// tile widths and the Go tail of up to 3 columns), padded b rows, and
// operands laced with ±0, NaN, ±Inf, subnormals and zero a elements.
func TestKernelsMatchGoBitForBit(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 67; n++ {
		for _, k := range []int{0, 1, 3, 8} {
			data := make([]byte, 1<<14)
			rng.Read(data)
			checkKernels(t, &kernelValues{data}, 1+rng.Intn(3), k, n, n+rng.Intn(3))
		}
	}
}

// FuzzNNKernels drives checkKernels, and checkAgainstReference on both
// paths, with fuzzer-chosen shapes and operand bytes.
func FuzzNNKernels(f *testing.F) {
	if !hasAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	f.Add(uint8(2), uint8(5), uint8(37), uint8(1), []byte{1, 2, 3, 70, 74, 78, 82, 86, 9, 90, 7, 95})
	f.Add(uint8(1), uint8(0), uint8(4), uint8(0), []byte{})
	f.Add(uint8(3), uint8(9), uint8(67), uint8(5), []byte{0, 0, 200, 150, 74, 74, 250})
	f.Fuzz(func(t *testing.T, m, k, n, pad uint8, data []byte) {
		checkKernels(t, &kernelValues{data}, 1+int(m%4), int(k%17), int(n%70), int(n%70)+int(pad%4))
		bothPaths(func() {
			checkAgainstReference(t, &kernelValues{data}, 1+int(m%4), int(k), 1+int(n%40), 1+int(pad%3), 1+int(n%40)+int(pad%4))
		})
	})
}

// TestSplitProductsBitForBit holds every product the helper splits to the
// serial product, on both paths: shapes with odd row counts, column counts
// around the cut's multiple of 4 and the transposed tile, and operands
// laced with ±0, NaN, ±Inf and subnormals.
func TestSplitProductsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][3]int{{2, 3, 8}, {3, 5, 9}, {7, 1, 37}, {5, 8, 67}, {64, 33, 70}, {2, 0, 12}} {
		m, k, n := sh[0], sh[1], sh[2]
		data := make([]byte, 1<<15)
		rng.Read(data)
		bothPaths(func() {
			r := &kernelValues{data}
			a, b, bn, c := r.fill(m*k), r.fill(k*n), r.fill(n*k), r.fill(m*n)
			dst0, z, y := r.fill(k*n), r.fill(m*n), r.fill(m*n)
			ps := []Param{
				{Value: FromSlice(1, n, r.fill(n)), Grad: FromSlice(1, n, r.fill(n))},
				{Value: FromSlice(m, 3, r.fill(3*m)), Grad: FromSlice(m, 3, r.fill(3*m))},
			}
			var outs [2][][]float64
			for i, mode := range splitModes {
				restore := mode.set()
				mul, bt := r.fill(m*n), r.fill(m*n)
				matMul(mul, a, b, k, n)
				at := append([]float64(nil), dst0...)
				var acc, wT []float64
				matMulATAdd(at, a, c, k, n, &acc)
				matMulBT(bt, a, bn, k, n, &wT)
				tanh, back := new(Matrix), FromSlice(m, n, append([]float64(nil), y...))
				Tanh.applyInto(tanh, FromSlice(m, n, z))
				Tanh.backwardInto(back, FromSlice(m, n, z), back)
				adam := NewAdam(0.01)
				cp := make([]Param, len(ps))
				for j, p := range ps {
					cp[j] = Param{Value: p.Value.Clone(), Grad: p.Grad}
				}
				adam.Step(cp)
				adam.Step(cp)
				outs[i] = [][]float64{mul, at, bt, tanh.Data, back.Data, cp[0].Value.Data, cp[1].Value.Data}
				restore()
			}
			shape := fmt.Sprintf("m=%d k=%d n=%d useAsm=%v", m, k, n, useAsm)
			for j, name := range []string{"matMul", "matMulATAdd", "matMulBT", "tanh", "tanh backward", "adam 0", "adam 1"} {
				sameBits(t, name+" "+shape, outs[1][j], outs[0][j])
			}
		})
	}
}
