package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tableIIShapes are the Table II MLP layer shapes on ORION at a 64-step
// update batch: the 153-wide input (46 vertices × 2 embedding columns + 61
// parameter features) into 256, and 256 into 256.
var tableIIShapes = [][2]int{{153, 256}, {256, 256}}

const tableIIBatch = 64

// The Table II GCN trunk on ORION, per observation: 46 vertices, 63
// feature columns, 32 hidden features and 2 embedding columns. The first
// MLP layer's input gradient is formed for the 46×2 embedding columns only.
const (
	orionVertices = 46
	orionFeatures = 63
	trunkHidden   = 32
	trunkEmbed    = 2
	trunkGradCols = orionVertices * trunkEmbed
)

// A kernelTier is one selection of the product and Adam kernels: the Go
// loops, the AVX2 assembly, or the AVX-512 assembly beside it. Each
// architecture's test file lists its tiers in kernelTiers, the Go loops
// first, and switches between them with selectTier.
type kernelTier struct {
	name        string
	have        bool // this CPU runs the tier
	asm, avx512 bool // the useAsm and useAVX512 it sets
}

// availableTiers returns the kernel tiers this CPU runs, the Go loops
// first, and logs each one it lacks.
func availableTiers(tb testing.TB) []kernelTier {
	var tiers []kernelTier
	for _, kt := range kernelTiers {
		if kt.have {
			tiers = append(tiers, kt)
		} else {
			tb.Logf("kernel tier %s skipped: this CPU lacks it", kt.name)
		}
	}
	return tiers
}

// onTiers runs f on each tier in turn, restoring the selection after each.
func onTiers(tiers []kernelTier, f func(kernelTier)) {
	for _, kt := range tiers {
		func() {
			defer selectTier(kt)()
			f(kt)
		}()
	}
}

// sameOnTiers runs f on each tier and holds every tier's outputs to the
// first tier's, the Go loops', with sameBits.
func sameOnTiers(t *testing.T, tiers []kernelTier, what string, f func() [][]float64) {
	t.Helper()
	var want [][]float64
	onTiers(tiers, func(kt kernelTier) {
		got := f()
		if want == nil {
			want = got
			return
		}
		for i := range got {
			sameBits(t, fmt.Sprintf("%s, output %d on %s", what, i, kt.name), want[i], got[i])
		}
	})
}

// selectedTier names the tier the kernels run on.
func selectedTier() string {
	switch {
	case useAsm && useAVX512:
		return "avx512"
	case useAsm:
		return "avx2"
	}
	return "go"
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// reluSlice is randSlice through a ReLU: about half of it is zero, in no
// pattern, as the trunk's hidden activations are.
func reluSlice(rng *rand.Rand, n int) []float64 {
	v := randSlice(rng, n)
	ReLU.apply(v, v)
	return v
}

// BenchmarkNNKernelsTableII times the three dense products of one MLP layer
// of the PPO update — the forward x·W, the weight gradient xᵀ·dZ and the
// input gradient dZ·Wᵀ —, a tanh layer's element-wise passes (tanh, its
// derivative, the bias add and the bias gradient's column sums) and the
// transpose of W, the critic head's 1-wide forward and weight gradient,
// and the products of the GCN trunk: the first layer's sparse Ŝ·X·W and
// its weight gradient, the sparse Ŝ·H of the layers past the first, the
// 32→2 embedding product and its weight gradient, the ReLU apply and
// backward (these three over a batch of observations), the first MLP
// layer's input gradient over the embedding columns, and one Adam step
// over a 256×256 weight. It reports multiply-adds (for the element-wise
// passes, the transpose and Adam, elements) per nanosecond; a sparse product counts those of its dense form. The
// products run on one goroutine, unsplit: the rates are the kernels'.
// Each name starts with the kernel tier it ran on (tier=go, avx2 or
// avx512).
func BenchmarkNNKernelsTableII(b *testing.B) {
	defer SplitNoTask()()
	rng := rand.New(rand.NewSource(1))
	type product struct {
		name string
		ops  int // multiply-adds, or elements, per run
		unit string
		run  func()
	}
	var products []product
	for _, sh := range tableIIShapes {
		in, out := sh[0], sh[1]
		x, w := randSlice(rng, tableIIBatch*in), randSlice(rng, in*out)
		dZ, y := randSlice(rng, tableIIBatch*out), make([]float64, tableIIBatch*out)
		gradW, dX := make([]float64, in*out), make([]float64, tableIIBatch*in)
		var acc, wT []float64
		shape := fmt.Sprintf("%dx%dx%d", tableIIBatch, in, out)
		madds := tableIIBatch * in * out
		products = append(products,
			product{"forward/" + shape, madds, "madd/ns", func() { matMul(y, x, w, in, out) }},
			product{"xTdZ/" + shape, madds, "madd/ns", func() { matMulATAdd(gradW, x, dZ, in, out, &acc) }},
			product{"dZWT/" + shape, madds, "madd/ns", func() { matMulBT(dX, dZ, w, out, in, &wT) }},
		)
	}

	// The element-wise passes of a 256-wide tanh layer over the batch:
	// tanh and its derivative, the bias add and the bias gradient's column
	// sums, one row at a time as Dense runs them; and the transpose of W
	// that dZ·Wᵀ makes, btTile rows at a time.
	{
		out := tableIIShapes[1][1]
		z, bias := randSlice(rng, tableIIBatch*out), randSlice(rng, out)
		y, dY, dZ, gradB := make([]float64, len(z)), randSlice(rng, len(z)), make([]float64, len(z)), make([]float64, out)
		Tanh.apply(y, z)
		w, wT := randSlice(rng, out*out), make([]float64, out*btTile)
		shape := fmt.Sprintf("%dx%d", tableIIBatch, out)
		elems := tableIIBatch * out
		products = append(products,
			product{"tanhApply/" + shape, elems, "elem/ns", func() { Tanh.apply(dZ, z) }},
			product{"tanhBackward/" + shape, elems, "elem/ns", func() { Tanh.backward(dZ, dY, y) }},
			product{"biasAdd/" + shape, elems, "elem/ns", func() {
				for r := 0; r < tableIIBatch; r++ {
					addInto(dZ[r*out:(r+1)*out], bias)
				}
			}},
			product{"biasGrad/" + shape, elems, "elem/ns", func() {
				for r := 0; r < tableIIBatch; r++ {
					addInto(gradB, dY[r*out:(r+1)*out])
				}
			}},
			product{fmt.Sprintf("transpose/%dx%d", out, out), out * out, "elem/ns", func() {
				for j0 := 0; j0 < out; j0 += btTile {
					transpose(wT, w[j0*out:(j0+btTile)*out], btTile, out)
				}
			}},
		)
	}

	// The critic head: the last 256-wide hidden layer (tanh, so no zeros)
	// into one value, and that weight's gradient.
	{
		in := tableIIShapes[1][1]
		x, w, y := randSlice(rng, tableIIBatch*in), randSlice(rng, in), make([]float64, tableIIBatch)
		dZ, gradW := randSlice(rng, tableIIBatch), make([]float64, in)
		var acc []float64
		products = append(products,
			product{fmt.Sprintf("head/%dx%dx1", tableIIBatch, in), tableIIBatch * in, "madd/ns", func() { matMul(y, x, w, in, 1) }},
			product{fmt.Sprintf("headXTdZ/%dx%dx1", in, tableIIBatch), tableIIBatch * in, "madd/ns", func() { matMulATAdd(gradW, x, dZ, in, 1, &acc) }},
		)
	}

	// The first MLP layer's input gradient, embedding columns only.
	in, out := tableIIShapes[0][0], tableIIShapes[0][1]
	dZ, w := randSlice(rng, tableIIBatch*out), randSlice(rng, in*out)
	dX := make([]float64, tableIIBatch*trunkGradCols)
	var wT []float64
	products = append(products, product{
		fmt.Sprintf("dZWT/%dx%dx%d", tableIIBatch, out, trunkGradCols),
		tableIIBatch * out * trunkGradCols, "madd/ns",
		func() { matMulBT(dX, dZ, w[:trunkGradCols*out], out, trunkGradCols, &wT) },
	})

	// The trunk's first layer: one observation's sparse Ŝ·X (features
	// about a tenth nonzero, as on ORION) times W, and the weight gradient.
	const n, f, hid, emb = orionVertices, orionFeatures, trunkHidden, trunkEmbed
	sx := randSlice(rng, n*f)
	for i := range sx {
		if rng.Intn(10) > 0 {
			sx[i] = 0
		}
	}
	var s sparseBlocks
	s.reset(n, f, n*f)
	s.appendBlock(sx)
	w0, y0 := randSlice(rng, f*hid), make([]float64, n*hid)
	dZ0, gradW0 := randSlice(rng, n*hid), make([]float64, f*hid)
	acc0 := make([]float64, hid)

	// The layers past the first propagate through Ŝ, kept sparse: about
	// 5% dense on ORION, a self loop and one or two neighbours per vertex.
	adj := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(40) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	var sHat sparseBlocks
	sHat.reset(n, n, n*n)
	sHat.appendBlock(NormalizeAdjacency(adj).Data)
	h0, sh := reluSlice(rng, n*hid), make([]float64, n*hid)

	// The trunk's embedding layer, its weight gradient and ReLU, over the
	// half-zero hidden blocks of a whole batch of observations, one block
	// after another, as an update pass runs them: one block, run again and
	// again, would let the branch predictor learn its zero pattern.
	blk := n * hid
	h, w1 := reluSlice(rng, tableIIBatch*blk), randSlice(rng, hid*emb)
	y1, dZ1, gradW1 := make([]float64, n*emb), randSlice(rng, tableIIBatch*n*emb), make([]float64, hid*emb)
	z, relu, dY, dH := randSlice(rng, tableIIBatch*blk), make([]float64, blk), randSlice(rng, tableIIBatch*blk), make([]float64, blk)
	var acc1 []float64
	perBlock := func(f func(b int)) func() {
		return func() {
			for b := 0; b < tableIIBatch; b++ {
				f(b)
			}
		}
	}
	products = append(products,
		product{fmt.Sprintf("sparseSXW/%dx%dx%d", n, f, hid), n * f * hid, "madd/ns", func() { s.mulInto(y0, 0, w0, hid, hid) }},
		product{fmt.Sprintf("sparseSXTdZ/%dx%dx%d", f, n, hid), n * f * hid, "madd/ns", func() { s.atAdd(gradW0, 0, dZ0, hid, acc0, 0, f) }},
		product{fmt.Sprintf("sparseSH/%dx%dx%d", n, n, hid), n * n * hid, "madd/ns", func() { sHat.mulInto(sh, 0, h0, hid, hid) }},
		product{fmt.Sprintf("embed/%dx%dx%dx%d", tableIIBatch, n, hid, emb), tableIIBatch * blk * emb, "madd/ns", perBlock(func(b int) {
			matMul(y1, h[b*blk:(b+1)*blk], w1, hid, emb)
		})},
		product{fmt.Sprintf("embedXTdZ/%dx%dx%dx%d", tableIIBatch, hid, n, emb), tableIIBatch * blk * emb, "madd/ns", perBlock(func(b int) {
			matMulATAdd(gradW1, h[b*blk:(b+1)*blk], dZ1[b*n*emb:(b+1)*n*emb], hid, emb, &acc1)
		})},
		product{fmt.Sprintf("reluApply/%dx%dx%d", tableIIBatch, n, hid), tableIIBatch * blk, "elem/ns", perBlock(func(b int) {
			ReLU.apply(relu, z[b*blk:(b+1)*blk])
		})},
		product{fmt.Sprintf("reluBackward/%dx%dx%d", tableIIBatch, n, hid), tableIIBatch * blk, "elem/ns", perBlock(func(b int) {
			ReLU.backward(dH, dY[b*blk:(b+1)*blk], h[b*blk:(b+1)*blk])
		})},
	)

	// One Adam step over a 256×256 weight, element by element.
	{
		n := tableIIShapes[1][1] * tableIIShapes[1][1]
		p, g, m, v := randSlice(rng, n), randSlice(rng, n), make([]float64, n), make([]float64, n)
		c := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999, bc1: 0.1, bc2: 0.001, lr: 3e-4, eps: 1e-8}
		products = append(products, product{fmt.Sprintf("adam/%dx%d", tableIIShapes[1][1], tableIIShapes[1][1]), n, "elem/ns", func() { adamUpdate(p, g, m, v, &c) }})
	}

	tier := "tier=" + selectedTier() + "/"
	for _, p := range products {
		b.Run(tier+p.name, func(b *testing.B) {
			p.run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.run()
			}
			b.ReportMetric(float64(b.N)*float64(p.ops)/float64(b.Elapsed().Nanoseconds()), p.unit)
		})
	}
}

// kernelValues yields kernel operands from a byte stream: mostly small
// values, with ±0, NaN, ±Inf, subnormals, large magnitudes and raw bit
// patterns mixed in. An exhausted stream yields zeros.
type kernelValues struct{ data []byte }

func (r *kernelValues) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *kernelValues) next() float64 {
	switch s := r.byte(); {
	case s < 64:
		return 0
	case s < 72:
		return math.Copysign(0, -1)
	case s < 76:
		return math.NaN()
	case s < 80:
		return math.Inf(1)
	case s < 84:
		return math.Inf(-1)
	case s < 88:
		return 5e-324 * float64(int(r.byte())-128)
	case s < 92:
		return math.Ldexp(float64(int(r.byte())-128), 1000)
	case s < 100:
		var b [8]byte
		for i := range b {
			b[i] = r.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	default:
		return float64(int(r.byte())-128) / float64(int(s)-90)
	}
}

func (r *kernelValues) fill(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.next()
	}
	return v
}

// sameBits fails unless got reproduces want, the reference's result, bit
// for bit. NaN results only need to be NaN on both sides: when both
// operands of an operation are NaN, x86 keeps the first one's payload, and
// the Go compiler orders the operands of the loops as it sees fit (it also
// folds x·1 to x, where the branch-free ReLU backward multiplies), so
// payloads are not part of the contract.
func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs vs %d", what, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: element %d: want %v (%#x), got %v (%#x)", what, i, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
}

// The branchy loops that rowNarrow and the ReLU apply and backward
// replaced: a test per element. They stay here as the reference the
// branch-free kernels are held to.

func rowNarrowBranchy(dst, a []float64, k, astride int, b []float64, ldb int) {
	n := len(dst)
	if n == 0 {
		return
	}
	var c0, c1, c2 float64
	for kk := 0; kk < k; kk++ {
		av := a[kk*astride]
		if av == 0 {
			continue
		}
		brow := b[kk*ldb:][:n]
		c0 += av * brow[0]
		if n > 1 {
			c1 += av * brow[1]
		}
		if n > 2 {
			c2 += av * brow[2]
		}
	}
	dst[0] = c0
	if n > 1 {
		dst[1] = c1
	}
	if n > 2 {
		dst[2] = c2
	}
}

func reluApplyBranchy(dst, z []float64) {
	for i, v := range z {
		if v < 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

func reluBackwardBranchy(dst, dY, y []float64) {
	for i, v := range y {
		if v > 0 {
			dst[i] = dY[i] * 1
		} else {
			dst[i] = dY[i] * 0
		}
	}
}

// checkAgainstReference holds the branch-free kernels to the branchy
// loops, and the sparse-block products to the dense products they stand
// for, on operands from r: rowNarrow for k steps of stride astride over b
// rows of stride ldb (n = 1, 2, 3 columns), ReLU over k elements, and an
// m×k block times k×n (n ≥ 1) and its transpose times m×n.
func checkAgainstReference(t *testing.T, r *kernelValues, m, k, n, astride, ldb int) {
	t.Helper()
	shape := fmt.Sprintf("m=%d k=%d n=%d astride=%d ldb=%d", m, k, n, astride, ldb)
	for cols := 1; cols <= 3; cols++ {
		a, b := r.fill(max(k-1, 0)*astride+1), r.fill(max(k-1, 0)*ldb+cols)
		want, got := make([]float64, cols), make([]float64, cols)
		rowNarrowBranchy(want, a, k, astride, b, ldb)
		rowNarrow(got, a, k, astride, b, ldb)
		sameBits(t, fmt.Sprintf("rowNarrow cols=%d %s", cols, shape), want, got)
	}

	z, dY := r.fill(k), r.fill(k)
	want, got := make([]float64, k), append([]float64(nil), z...)
	reluApplyBranchy(want, z)
	ReLU.apply(got, got) // in place, as the layers apply it
	sameBits(t, "relu apply "+shape, want, got)
	for _, y := range [][]float64{z, want} { // raw values and ReLU outputs
		wantD, gotD := make([]float64, k), append([]float64(nil), y...)
		reluBackwardBranchy(wantD, dY, y)
		ReLU.backward(gotD, dY, gotD) // over the activations, as Dense runs it
		sameBits(t, "relu backward "+shape, wantD, gotD)
	}

	// An m×k block kept sparse, against the dense zero-skipping products.
	blk, w, dZ := r.fill(m*k), r.fill(k*n), r.fill(m*n)
	var s sparseBlocks
	s.reset(m, k, 0)
	s.appendBlock(blk)
	want, got = make([]float64, m*n), r.fill(m*n) // garbage the product must overwrite
	matMul(want, blk, w, k, n)
	s.mulInto(got, 0, w, n, n)
	sameBits(t, "sparseBlocks.mulInto "+shape, want, got)
	dst := r.fill(k * n)
	want, got = append([]float64(nil), dst...), append([]float64(nil), dst...)
	var acc []float64
	matMulATAdd(want, blk, dZ, k, n, &acc)
	s.atAdd(got, 0, dZ, n, acc, 0, k)
	sameBits(t, "sparseBlocks.atAdd "+shape, want, got)
}

// TestBranchFreeKernelsBitForBit runs checkAgainstReference on every
// architecture and kernel tier, over k across the compaction chunk
// boundary, row counts short of, at and past the four- and eight-row
// blocks, 1–3 columns and 32 or more with a tail, strided a and padded b
// rows, with operands laced with ±0, NaN, ±Inf and subnormals; then on
// fixed operands where every zero a element meets an Inf or NaN b element,
// whose product must not reach the sum: rowNarrow, and the products of a
// block of rows on every tier; and the ReLU apply and backward on ±0, NaN,
// ±Inf and subnormals on every tier.
func TestBranchFreeKernelsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tiers := availableTiers(t)
	for _, k := range []int{0, 1, 2, 5, 31, 63, 64, 65, 130} {
		for _, n := range []int{1, 2, 3, 4, 9, 33, 47} {
			for _, m := range []int{1 + rng.Intn(3), 4 + rng.Intn(4), 8 + rng.Intn(9)} {
				data := make([]byte, 1<<15)
				rng.Read(data)
				astride, ldb := 1+rng.Intn(3), n+rng.Intn(3)
				onTiers(tiers, func(kernelTier) {
					checkAgainstReference(t, &kernelValues{data}, m, k, n, astride, ldb)
				})
			}
		}
	}

	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	a := []float64{0, negZero, 2, 0, -0.5, negZero, 5e-324, 0}
	b := []float64{ // row kk pairs with a[kk]: Inf and NaN exactly where a is zero
		inf, nan, -inf,
		nan, inf, nan,
		1, 3, 7,
		-inf, nan, inf,
		2, 5, -4,
		nan, -inf, nan,
		0.25, 1, 4,
		inf, nan, -inf,
	}
	for cols := 1; cols <= 3; cols++ {
		want, got := make([]float64, cols), make([]float64, cols)
		rowNarrowBranchy(want, a, len(a), 1, b, 3)
		rowNarrow(got, a, len(a), 1, b, 3)
		sameBits(t, fmt.Sprintf("rowNarrow zero a against Inf/NaN b, cols=%d", cols), want, got)
		for j, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rowNarrow cols=%d: column %d is %v; a zero a element met an Inf or NaN b", cols, j, v)
			}
		}
	}

	// Nine rows, each a multiple of the a above (one block of eight, or
	// two of four, and a row left), so that every zero a element meets a
	// b row of Inf and NaN: a×b, aᵀ×b over the same rows stored as
	// columns, and a×wᵀ for w = bᵀ.
	const m = 9
	k := len(a)
	rows, cols := make([]float64, m*k), make([]float64, k*m)
	for i := 0; i < m; i++ {
		for kk, v := range a {
			rows[i*k+kk] = v * float64(i+1)
			cols[kk*m+i] = v * float64(i+1)
		}
	}
	for _, n := range []int{1, 2, 3, 4, 37} {
		bw, wt := make([]float64, k*n), make([]float64, n*k)
		for kk := 0; kk < k; kk++ {
			for j := 0; j < n; j++ {
				bw[kk*n+j] = b[kk*3+j%3]
				wt[j*k+kk] = b[kk*3+j%3]
			}
		}
		what := fmt.Sprintf("block products, zero a against Inf/NaN b, n=%d", n)
		sameOnTiers(t, tiers, what, func() [][]float64 {
			mul, at, bt := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
			var acc, wT []float64
			matMul(mul, rows, bw, k, n)
			matMulATAdd(at, cols, bw, m, n, &acc)
			matMulBT(bt, rows, wt, k, n, &wT)
			for p, out := range [][]float64{mul, at, bt} {
				for e, v := range out {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s on %s: product %d, element %d is %v; a zero a element met an Inf or NaN b", what, selectedTier(), p, e, v)
					}
				}
			}
			return [][]float64{mul, at, bt}
		})
	}

	// Special values in the eight-lane body and the masked tail of the
	// vector kernels, against the branchy loops and across the tiers.
	y := []float64{negZero, nan, -nan, inf, -inf, 5e-324, -5e-324, 0, 1, -1, negZero, nan}
	dY := []float64{inf, nan, 1, nan, -inf, negZero, inf, nan, negZero, -inf, -inf, negZero}
	sameOnTiers(t, tiers, "relu on special values", func() [][]float64 {
		want, apply, back := make([]float64, len(y)), make([]float64, len(y)), make([]float64, len(y))
		reluApplyBranchy(want, y)
		ReLU.apply(apply, y)
		sameBits(t, "relu apply on special values on "+selectedTier(), want, apply)
		reluBackwardBranchy(want, dY, y)
		ReLU.backward(back, dY, y)
		sameBits(t, "relu backward on special values on "+selectedTier(), want, back)
		return [][]float64{apply, back}
	})
}

// TestSparseBlocksPanicOnShortOperand holds the sparse products' bounds
// check, made once per block against the store's shape, to the memory
// safety a check per row gave: on every tier, mulInto and atAdd panic
// before any kernel reads or writes when w, dZ or dst is one element
// shorter than the block's shape needs.
func TestSparseBlocksPanicOnShortOperand(t *testing.T) {
	const n, f, k, ldw = 5, 4, 9, 11
	blk := make([]float64, n*f)
	for i := range blk {
		blk[i] = float64(i + 1) // every row and column has entries
	}
	var s sparseBlocks
	s.reset(n, f, n*f)
	s.appendBlock(blk)
	s.appendBlock(blk)
	w, dZ := make([]float64, (f-1)*ldw+k), make([]float64, n*k)
	for _, kt := range availableTiers(t) {
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"mulInto, w short", func() { s.mulInto(make([]float64, n*k), 1, w[:len(w)-1], k, ldw) }},
			{"mulInto, dst short", func() { s.mulInto(make([]float64, n*k-1), 1, w, k, ldw) }},
			{"atAdd, dZ short", func() { s.atAdd(make([]float64, f*k), 1, dZ[:len(dZ)-1], k, make([]float64, k), 0, f) }},
			{"atAdd, dst short", func() { s.atAdd(make([]float64, f*k-1), 1, dZ, k, make([]float64, k), 1, f) }},
		} {
			func() {
				defer selectTier(kt)()
				defer func() {
					if recover() == nil {
						t.Errorf("%s on %s: no panic", c.name, kt.name)
					}
				}()
				c.run()
			}()
		}
	}
}
