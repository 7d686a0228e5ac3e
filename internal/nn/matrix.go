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

// AddInPlace adds b element-wise into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	shapeEqual("add", m, b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies all elements by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
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

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
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
// with m = len(dst)/n. It is also applied to one row block of a row-stacked
// batch at a time (a per-observation Ŝ times that observation's rows).
func matMul(dst, a, b []float64, k, n int) {
	for i := range dst {
		dst[i] = 0
	}
	m := len(dst) / max(n, 1)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulATAddInto adds aᵀ×b into dst (a is r×m, b is r×n, dst is m×n)
// without a temporary: each row of the product is summed in the one-row
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

// matMulATAdd is matMulATAddInto on row-major slices, with r = len(a)/m.
func matMulATAdd(dst, a, b []float64, m, n int, acc *[]float64) {
	*acc = ensureLen(*acc, n)
	row := *acc
	rows := len(a) / max(m, 1)
	for i := 0; i < m; i++ {
		for j := range row {
			row[j] = 0
		}
		for k := 0; k < rows; k++ {
			av := a[k*m+i]
			if av == 0 {
				continue
			}
			brow := b[k*n : (k+1)*n][:len(row)]
			for j, bv := range brow {
				row[j] += av * bv
			}
		}
		orow := dst[i*n : (i+1)*n][:len(row)]
		for j, v := range row {
			orow[j] += v
		}
	}
}

// matMulBTInto computes dst = a×bᵀ without materializing the transpose.
// Each element is the dot product of a row of a with a row of b, summed
// over k in order from zero and skipping zero elements of a — the
// operation sequence of MatMulInto(dst, a, b.Transpose()), so results are
// bit-identical to it.
func matMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul(a,bT) inner dims %d vs %d", a.Cols, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("nn: matmul destination aliases an operand")
	}
	dst.EnsureShape(a.Rows, b.Rows)
	matMulBT(dst.Data, a.Data, b.Data, a.Cols, b.Rows)
}

// matMulBT is matMulBTInto on row-major slices: dst (m×n) = a (m×k) ×
// bᵀ for b (n×k). Both operands are read along contiguous rows, and a 2×4
// block of outputs is kept in registers, so each loaded element of a
// feeds four products and each element of b two.
func matMulBT(dst, a, b []float64, k, n int) {
	m := len(dst) / max(n, 1)
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
		o0 := dst[i*n : (i+1)*n]
		o1 := dst[(i+1)*n : (i+2)*n][:len(o0)]
		j := 0
		for ; j+4 <= n; j += 4 {
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
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			o0[j], o1[j] = dotSkip(a0, brow), dotSkip(a1, brow)
		}
	}
	if i < m {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = dotSkip(arow, b[j*k:(j+1)*k])
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

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Hadamard returns the element-wise product a⊙b.
func Hadamard(a, b *Matrix) *Matrix {
	shapeEqual("hadamard", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Flatten returns the matrix reshaped into a single row vector (a view
// copy, not aliased).
func (m *Matrix) Flatten() *Matrix {
	out := NewMatrix(1, m.Rows*m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Reshape returns a copy with the new shape; the element count must match.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows*cols != len(m.Data) {
		panic(fmt.Sprintf("nn: cannot reshape %dx%d to %dx%d", m.Rows, m.Cols, rows, cols))
	}
	out := NewMatrix(rows, cols)
	copy(out.Data, m.Data)
	return out
}

// ConcatCols horizontally concatenates row vectors or equal-row matrices.
func ConcatCols(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return NewMatrix(0, 0)
	}
	rows := ms[0].Rows
	total := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("nn: concat rows %d vs %d", m.Rows, rows))
		}
		total += m.Cols
	}
	out := NewMatrix(rows, total)
	for r := 0; r < rows; r++ {
		off := 0
		for _, m := range ms {
			copy(out.Data[r*total+off:r*total+off+m.Cols], m.Data[r*m.Cols:(r+1)*m.Cols])
			off += m.Cols
		}
	}
	return out
}

// XavierInit fills m with Glorot-uniform values for a layer with the given
// fan-in and fan-out, using the provided RNG for determinism.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Norm returns the Frobenius norm.
func (m *Matrix) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
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

// ScaleGrads multiplies all gradients by s (used for minibatch averaging
// and multi-worker gradient averaging).
func ScaleGrads(ps []Param, s float64) {
	for _, p := range ps {
		p.Grad.ScaleInPlace(s)
	}
}

// AddGrads accumulates src gradients into dst (parameter lists must come
// from identically shaped networks). It implements the distributed gradient
// sum of the parallel training scheme (§IV-C).
func AddGrads(dst, src []Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: grad list length %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i].Grad.AddInPlace(src[i].Grad)
	}
}

// CopyParams copies parameter values from src into dst, synchronizing
// worker replicas after a global update.
func CopyParams(dst, src []Param) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("nn: param list length %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		shapeEqual("copy", dst[i].Value, src[i].Value)
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
}

// GlobalGradNorm returns the L2 norm across all gradients.
func GlobalGradNorm(ps []Param) float64 {
	var s float64
	for _, p := range ps {
		for _, v := range p.Grad.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGrads rescales gradients so their global norm is at most maxNorm.
func ClipGrads(ps []Param, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	n := GlobalGradNorm(ps)
	if n > maxNorm {
		ScaleGrads(ps, maxNorm/n)
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
