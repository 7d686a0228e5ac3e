package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// The assembly kernels must reproduce the Go loops bit for bit. Every
// check below runs one product on each kernel tier this CPU has and
// compares each tier's result with the Go loops' with sameBits:
// Float64bits element by element, NaN payloads aside.

var kernelTiers = []kernelTier{
	{name: "go", have: true},
	{name: "avx2", have: hasAVX2, asm: true},
	{name: "avx512", have: hasAVX512, asm: true, avx512: true},
}

func selectTier(kt kernelTier) (restore func()) {
	asm, avx512 := useAsm, useAVX512
	useAsm, useAVX512 = kt.asm, kt.avx512
	return func() { useAsm, useAVX512 = asm, avx512 }
}

// checkKernels compares the tiers on every product of the package for an
// m×k by k×n shape whose operands come from r (ldb ≥ n pads b's rows), on
// the element-wise passes over n elements, and on an Adam step over n
// parameters.
func checkKernels(t *testing.T, tiers []kernelTier, r *kernelValues, m, k, n, ldb int) {
	t.Helper()
	shape := fmt.Sprintf("m=%d k=%d n=%d ldb=%d", m, k, n, ldb)
	same := func(what string, f func() [][]float64) {
		t.Helper()
		sameOnTiers(t, tiers, what+" "+shape, f)
	}
	a, b := r.fill(m*k), r.fill(k*n)

	// matMul: dst (m×n) = a (m×k) × b (k×n).
	same("matMul", func() [][]float64 {
		dst := r.fill(m * n) // garbage the product must overwrite
		matMul(dst, a, b, k, n)
		return [][]float64{dst}
	})

	// rowProduct with padded b rows: one row of a×b[:, :n].
	if k > 0 {
		bp := r.fill((k-1)*ldb + n)
		same("rowProduct", func() [][]float64 {
			dst := make([]float64, n)
			rowProduct(dst, a, k, 1, bp, ldb)
			return [][]float64{dst}
		})
	}

	// matMulATAdd: dst (k×n) += aᵀ (k×m) × c (m×n), a read down its
	// columns (stride k).
	c, dst0 := r.fill(m*n), r.fill(k*n)
	same("matMulATAdd", func() [][]float64 {
		dst := append([]float64(nil), dst0...)
		var acc []float64
		matMulATAdd(dst, a, c, k, n, &acc)
		return [][]float64{dst}
	})

	// dZ·Wᵀ: dst (m×n) = a (m×k) × wᵀ for w (n×k), the Go path's dot
	// products against the assembly's row kernels on a transposed copy.
	w := r.fill(n * k)
	same("matMulBT", func() [][]float64 {
		dst := r.fill(m * n)
		var bt []float64
		matMulBT(dst, a, w, k, n, &bt)
		return [][]float64{dst}
	})

	// sparseBlocks: a stored as block 0 and, with a row and a column
	// cleared, as block 1, so that rows and columns without entries occur.
	// Each block times b, also with b's rows padded to ldb, and its
	// transpose times c added into dst, over every column of the block and
	// over those past the first.
	az := append([]float64(nil), a...)
	if k > 0 {
		clear(az[m/2*k : (m/2+1)*k])
		for i := 0; i < m; i++ {
			az[i*k+k/2] = 0
		}
	}
	var s sparseBlocks
	s.reset(m, k, 2*m*k)
	s.appendBlock(a)
	s.appendBlock(az)
	bp := r.fill(max(k-1, 0)*ldb + n)
	dst1 := r.fill(k * n)
	for blk := 0; blk < 2; blk++ {
		same(fmt.Sprintf("sparseBlocks.mulInto block %d", blk), func() [][]float64 {
			dst, dstp := r.fill(m*n), r.fill(m*n)
			s.mulInto(dst, blk, b, n, n)
			s.mulInto(dstp, blk, bp, n, ldb)
			return [][]float64{dst, dstp}
		})
		same(fmt.Sprintf("sparseBlocks.atAdd block %d", blk), func() [][]float64 {
			dst, part := append([]float64(nil), dst1...), append([]float64(nil), dst1...)
			s.atAdd(dst, blk, c, n, make([]float64, n), 0, k)
			s.atAdd(part, blk, c, n, make([]float64, n), min(1, k), k)
			return [][]float64{dst, part}
		})
	}

	// The element-wise passes over n elements: ReLU and tanh, and their
	// derivatives over raw values and, in place, over the activations, as
	// the layers run them; and addInto.
	z, dy := r.fill(n), r.fill(n)
	for _, act := range []struct {
		name string
		a    Activation
	}{{"relu", ReLU}, {"tanh", Tanh}} {
		same(act.name+" apply and backward", func() [][]float64 {
			y, raw := append([]float64(nil), z...), make([]float64, n)
			act.a.apply(y, y)
			act.a.backward(raw, dy, z)
			back := append([]float64(nil), y...)
			act.a.backward(back, dy, back)
			return [][]float64{y, raw, back}
		})
	}
	same("addInto", func() [][]float64 {
		dst := append([]float64(nil), z...)
		addInto(dst, dy)
		return [][]float64{dst}
	})

	// Adam: one step on n parameters, with coefficients from r too; the
	// outputs are the parameters and the first and second moments.
	p, g, mom, vel := r.fill(n), r.fill(n), r.fill(n), r.fill(n)
	coef := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999, bc1: 0.1, bc2: 0.001, lr: r.next(), eps: 1e-8}
	same("adam", func() [][]float64 {
		outs := [][]float64{append([]float64(nil), p...), append([]float64(nil), mom...), append([]float64(nil), vel...)}
		adamUpdate(outs[0], g, outs[1], outs[2], &coef)
		return outs
	})
}

// TestKernelsMatchGoBitForBit covers every tail length 0–67 (the vector
// tiles, the AVX-512 masked tiles and the Go tail of up to 3 columns), of
// the products and of the element-wise passes; row counts short of, at
// and past the four- and eight-row blocks; k = 0 (empty products), k = 1
// and more steps; padded b rows; sparse rows and columns without entries;
// and operands laced with ±0, NaN, ±Inf, subnormals and zero a elements.
func TestKernelsMatchGoBitForBit(t *testing.T) {
	tiers := availableTiers(t)
	if len(tiers) < 2 {
		t.Skip("no assembly kernels on this CPU")
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 67; n++ {
		for _, k := range []int{0, 1, 3, 8, 13} {
			for _, m := range []int{1 + rng.Intn(3), 4 + rng.Intn(4), 8 + rng.Intn(9)} {
				data := make([]byte, 1<<15)
				rng.Read(data)
				checkKernels(t, tiers, &kernelValues{data}, m, k, n, n+rng.Intn(3))
			}
		}
	}
}

// FuzzNNKernels drives checkKernels, and checkAgainstReference on every
// tier, with fuzzer-chosen shapes and operand bytes.
func FuzzNNKernels(f *testing.F) {
	tiers := availableTiers(f)
	if len(tiers) < 2 {
		f.Skip("no assembly kernels on this CPU")
	}
	f.Add(uint8(2), uint8(5), uint8(37), uint8(1), []byte{1, 2, 3, 70, 74, 78, 82, 86, 9, 90, 7, 95})
	f.Add(uint8(1), uint8(0), uint8(4), uint8(0), []byte{})
	f.Add(uint8(3), uint8(9), uint8(67), uint8(5), []byte{0, 0, 200, 150, 74, 74, 250})
	f.Add(uint8(11), uint8(1), uint8(2), uint8(2), []byte{0, 74, 0, 78, 66, 82, 150, 0, 75, 200, 79, 30})
	f.Add(uint8(7), uint8(16), uint8(63), uint8(3), []byte{64, 74, 0, 200, 78, 68, 82, 0, 100})
	f.Fuzz(func(t *testing.T, m, k, n, pad uint8, data []byte) {
		checkKernels(t, tiers, &kernelValues{data}, 1+int(m%16), int(k%17), int(n%70), int(n%70)+int(pad%4))
		onTiers(tiers, func(kernelTier) {
			checkAgainstReference(t, &kernelValues{data}, 1+int(m%16), int(k), 1+int(n%40), 1+int(pad%3), 1+int(n%40)+int(pad%4))
		})
	})
}

// TestSplitProductsBitForBit holds every product the helper splits to the
// serial product, on every tier: shapes with odd row counts, column
// counts around the transposed tile, and operands laced with ±0, NaN,
// ±Inf and subnormals.
func TestSplitProductsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tiers := availableTiers(t)
	for _, sh := range [][3]int{{2, 3, 8}, {3, 5, 9}, {7, 1, 37}, {5, 8, 67}, {64, 33, 70}, {2, 0, 12}} {
		m, k, n := sh[0], sh[1], sh[2]
		data := make([]byte, 1<<15)
		rng.Read(data)
		onTiers(tiers, func(kt kernelTier) {
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
			shape := fmt.Sprintf("m=%d k=%d n=%d tier=%s", m, k, n, kt.name)
			for j, name := range []string{"matMul", "matMulATAdd", "matMulBT", "tanh", "tanh backward", "adam 0", "adam 1"} {
				sameBits(t, name+" "+shape, outs[1][j], outs[0][j])
			}
		})
	}
}
