// Package nn is a small, dependency-free neural-network library built for
// NPTSN: dense layers, graph convolutional layers (Eq. 4 of the paper),
// ReLU/Tanh activations, masked softmax policies and the Adam optimizer,
// all with explicit (manual) backpropagation. It substitutes for the
// PyTorch stack used by the original implementation; gradients are
// verified against finite differences in the tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a matrix; the slice is used directly.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// shapeEqual panics unless a and b have identical shapes.
func shapeEqual(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// EnsureShape resizes m to rows×cols, reusing the existing backing array
// when it has enough capacity. Element values are unspecified afterwards —
// callers that need zeros must Zero() (the Into kernels do it themselves).
func (m *Matrix) EnsureShape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
}

// aliases reports whether two matrices share a backing array (same slice
// origin is enough for the scratch-reuse discipline: buffers are either
// identical or disjoint, never overlapping views).
func aliases(a, b *Matrix) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// MatMulInto computes dst = a×b, resizing dst in place. dst must not alias
// a or b. The inner loop skips zero elements of a (the propagation operator
// Ŝ and the masked feature blocks are sparse); every matmul in the package
// funnels through this kernel so single-row and batched evaluations execute
// the identical floating-point operation sequence per output row.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: matmul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	dst.EnsureShape(a.Rows, b.Cols)
	matMul(dst.Data, a.Data, b.Data, a.Cols, b.Cols)
}

// matMul is MatMulInto on row-major slices: dst (m×n) = a (m×k) × b (k×n),
// with m = len(dst)/n, a rowsProduct per block of output rows and a
// rowProduct per row left. It is also applied to one row block of a
// row-stacked batch at a time (a per-observation Ŝ times that
// observation's rows). Large products split their rows with the helper.
func matMul(dst, a, b []float64, k, n int) {
	m := len(dst) / max(n, 1)
	j := mulJob{dst: dst, a: a, b: b, k: k, n: n}
	if h := claim(m*k*n, m); h != nil {
		h.args.mul = j
		h.run(&h.args.mul, m/2, m)
		return
	}
	j.run(0, 0, m)
}

// mulJob is matMul's rows.
type mulJob struct {
	dst, a, b []float64
	k, n      int
}

func (mj *mulJob) run(_, lo, hi int) {
	k, n := mj.k, mj.n
	i := lo
	if g := blockRows(k, n); g > 0 {
		for ; i+g <= hi; i += g {
			rowsProduct(mj.dst[i*n:(i+g)*n], n, n, mj.a[i*k:(i+g)*k], k, 1, k, mj.b, n)
		}
	}
	for ; i < hi; i++ {
		rowProduct(mj.dst[i*n:(i+1)*n], mj.a[i*k:(i+1)*k], k, 1, mj.b, n)
	}
}

// matMulATAddInto adds aᵀ×b into dst (a is r×m, b is r×n, dst is m×n)
// without a temporary: each block of rows of the product is summed in the
// scratch *acc (grown on first use) and then added to dst. Every element
// sums a[k][i]·b[k][j] over k in order from zero, skipping zero elements
// of a, and adds that sum once — the operation sequence of computing aᵀ×b
// into a zeroed matrix and adding it, so gradients are bit-identical to
// that form.
func matMulATAddInto(dst, a, b *Matrix, acc *[]float64) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: matmul(aT,b) inner dims %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul(aT,b) into %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	matMulATAdd(dst.Data, a.Data, b.Data, a.Cols, b.Cols, acc)
}

// matMulATAdd is matMulATAddInto on row-major slices, with r = len(a)/m:
// row i of the product is the rowProduct of column i of a (stride m).
// Large products split their output rows with the helper, which sums in
// a scratch of its own.
func matMulATAdd(dst, a, b []float64, m, n int, acc *[]float64) {
	j := atAddJob{dst: dst, a: a, b: b, m: m, n: n, acc: [2]*[]float64{acc}}
	if h := claim(len(a)*n, m); h != nil {
		j.acc[1] = &h.acc
		h.args.atAdd = j
		h.run(&h.args.atAdd, m/2, m)
		return
	}
	j.run(0, 0, m)
}

// atAddJob is matMulATAdd's output rows, part p summing in *acc[p].
type atAddJob struct {
	dst, a, b []float64
	m, n      int
	acc       [2]*[]float64
}

func (aj *atAddJob) run(p, lo, hi int) {
	*aj.acc[p] = ensureLen(*aj.acc[p], maxBlockRows*aj.n)
	atAddRows(aj.dst, aj.a, aj.b, aj.m, aj.n, *aj.acc[p], lo, hi)
}

// maxBlockRows is the most rows rowsProduct computes at once: an
// atAddRows scratch holds that many rows.
const maxBlockRows = 8

// atAddRows adds rows [lo, hi) of aᵀ×b into dst (a is r×m, b is r×n,
// dst is m×n), each block of rows summed in scratch (maxBlockRows·n long)
// and then added: a rowsProduct over adjacent columns of a, and a
// rowProduct per row left.
func atAddRows(dst, a, b []float64, m, n int, scratch []float64, lo, hi int) {
	rows := len(a) / max(m, 1)
	i := lo
	if g := blockRows(rows, n); g > 0 {
		for ; i+g <= hi; i += g {
			rowsProduct(scratch, n, n, a[i:], rows, m, 1, b, n)
			addInto(dst[i*n:(i+g)*n], scratch)
		}
	}
	for ; i < hi; i++ {
		rowProduct(scratch[:n], a[min(i, len(a)):], rows, m, b, n)
		addInto(dst[i*n:(i+1)*n], scratch)
	}
}

// matMulBTInto computes dst = a×bᵀ. Each element is the dot product of a
// row of a with a row of b, summed over k in order from zero and skipping
// zero elements of a — the operation sequence of MatMulInto of a and the
// transpose of b, so results are bit-identical to it. *bt is transpose
// scratch for the vector path (grown on first use).
func matMulBTInto(dst, a, b *Matrix, bt *[]float64) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul(a,bT) inner dims %d vs %d", a.Cols, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	dst.EnsureShape(a.Rows, b.Rows)
	matMulBT(dst.Data, a.Data, b.Data, a.Cols, b.Rows, bt)
}

// btTile is how many rows of b matMulBT transposes at a time on the
// vector path: the row kernel's widest column tile.
const btTile = 32

// matMulBT is matMulBTInto on row-major slices: dst (m×n) = a (m×k) ×
// bᵀ for b (n×k). Large products split their columns with the helper, at
// a multiple of 4, each part transposing its own tiles into its own
// scratch; *bt is the caller's.
func matMulBT(dst, a, b []float64, k, n int, bt *[]float64) {
	m := len(dst) / max(n, 1)
	j := btJob{dst: dst, a: a, b: b, k: k, n: n, bt: [2]*[]float64{bt}}
	if h := claim(m*k*n, n/4); h != nil { // items: groups of four columns
		j.bt[1] = &h.tile
		h.args.bt = j
		h.run(&h.args.bt, (n/2+2)&^3, n)
		return
	}
	j.run(0, 0, n)
}

// btJob is matMulBT's columns, part p transposing into *bt[p].
type btJob struct {
	dst, a, b []float64
	k, n      int
	bt        [2]*[]float64
}

// run computes columns [lo, hi) of dst. On the vector path btTile rows
// of b at a time are transposed into *bt[p] (k×btTile, grown on first
// use) and the rows of a run the row products against them, a block of
// rows at a time, giving btTile columns of dst. Otherwise both operands
// are read along contiguous rows, and a 2×4 block of outputs is kept in
// registers, so each loaded element of a feeds four products and each
// element of b two.
func (bj *btJob) run(p, lo, hi int) {
	dst, a, b, k, n := bj.dst, bj.a, bj.b, bj.k, bj.n
	m := len(dst) / max(n, 1)
	if useAsm && n >= 4 {
		*bj.bt[p] = ensureLen(*bj.bt[p], k*min(hi-lo, btTile))
		for j0 := lo; j0 < hi; j0 += btTile {
			w := min(btTile, hi-j0)
			t := (*bj.bt[p])[:k*w]
			transpose(t, b[j0*k:(j0+w)*k], w, k)
			i := 0
			if g := blockRows(k, w); g > 0 {
				for ; i+g <= m; i += g {
					rowsProduct(dst[i*n+j0:], n, w, a[i*k:(i+g)*k], k, 1, k, t, w)
				}
			}
			for ; i < m; i++ {
				rowProduct(dst[i*n+j0:i*n+j0+w], a[i*k:(i+1)*k], k, 1, t, w)
			}
		}
		return
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
		o0 := dst[i*n : (i+1)*n]
		o1 := dst[(i+1)*n : (i+2)*n][:len(o0)]
		j := lo
		for ; j+4 <= hi; j += 4 {
			b0 := b[j*k : (j+1)*k][:len(a0)]
			b1 := b[(j+1)*k : (j+2)*k][:len(a0)]
			b2 := b[(j+2)*k : (j+3)*k][:len(a0)]
			b3 := b[(j+3)*k : (j+4)*k][:len(a0)]
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for kk, v0 := range a0 {
				w0, w1, w2, w3 := b0[kk], b1[kk], b2[kk], b3[kk]
				if v0 != 0 {
					c00 += v0 * w0
					c01 += v0 * w1
					c02 += v0 * w2
					c03 += v0 * w3
				}
				if v1 := a1[kk]; v1 != 0 {
					c10 += v1 * w0
					c11 += v1 * w1
					c12 += v1 * w2
					c13 += v1 * w3
				}
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < hi; j++ {
			brow := b[j*k : (j+1)*k]
			o0[j], o1[j] = dotSkip(a0, brow), dotSkip(a1, brow)
		}
	}
	if i < m {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := lo; j < hi; j++ {
			orow[j] = dotSkip(arow, b[j*k:(j+1)*k])
		}
	}
}

// transpose writes the r×c row-major src into dst as c×r, in 8×8 tiles so
// that the strided writes of one tile stay within a few cache lines.
func transpose(dst, src []float64, r, c int) {
	const tile = 8
	for i0 := 0; i0 < r; i0 += tile {
		for j0 := 0; j0 < c; j0 += tile {
			j1 := min(j0+tile, c)
			for i := i0; i < min(i0+tile, r); i++ {
				for j, v := range src[i*c+j0 : i*c+j1] {
					dst[(j0+j)*r+i] = v
				}
			}
		}
	}
}

// dotSkip returns Σ a[k]·b[k] summed in order from zero, skipping zero
// elements of a.
func dotSkip(a, b []float64) float64 {
	b = b[:len(a)]
	var c float64
	for k, av := range a {
		if av != 0 {
			c += av * b[k]
		}
	}
	return c
}

// XavierInit fills m with Glorot-uniform values for a layer with the given
// fan-in and fan-out, using the provided RNG for determinism.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Param couples a parameter matrix with its gradient accumulator; the Adam
// optimizer walks a []Param.
type Param struct {
	Value *Matrix
	Grad  *Matrix
	Name  string
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(ps []Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// ExportWeights snapshots parameter values into plain float64 slices (one
// per parameter, row-major), suitable for JSON persistence.
func ExportWeights(ps []Param) [][]float64 {
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Value.Data...)
	}
	return out
}

// ImportWeights restores parameter values from an ExportWeights snapshot.
// The snapshot must come from an identically shaped network.
func ImportWeights(ps []Param, data [][]float64) error {
	if len(ps) != len(data) {
		return fmt.Errorf("nn: weight snapshot has %d tensors, network has %d", len(data), len(ps))
	}
	for i, p := range ps {
		if len(p.Value.Data) != len(data[i]) {
			return fmt.Errorf("nn: tensor %d has %d values, network expects %d", i, len(data[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, data[i])
	}
	return nil
}
