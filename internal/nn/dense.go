package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity of a layer.
type Activation int

// Supported activations.
const (
	// Identity applies no nonlinearity (output layers).
	Identity Activation = iota + 1
	// ReLU is max(0, x).
	ReLU
	// Tanh is the hyperbolic tangent.
	Tanh
)

// applyInto computes dst = σ(z) element-wise, resizing dst in place; dst
// may be z itself. Large batches split their elements with the helper.
func (a Activation) applyInto(dst, z *Matrix) {
	dst.EnsureShape(z.Rows, z.Cols)
	actSplit(actJob{a: a, dst: dst.Data, z: z.Data})
}

// tanhCost and actCost weigh one element's tanh, and any other activation
// or derivative, in multiply-adds of the row kernel for the split
// threshold (BenchmarkNNKernelsTableII, AVX-512): the block kernel does
// ~17 multiply-adds per ns, and the vector ReLU, its backward, tanh′ and
// the bias passes 3.5–7 elements per ns, so ~4 each. math.Tanh takes
// ~20 ns, ~340 multiply-adds, but tanhCost stays at 128: above 227 the
// tanh of a service's micro-net update (48 steps × 24 columns), and above
// 256 that of a 4-row rollout through a 256-wide layer, would cross the
// threshold that keeps the serving paths serial.
const tanhCost, actCost = 128, 4

// actJob is an activation, or with back its derivative times the
// upstream gradient z, over an element range.
type actJob struct {
	a         Activation
	back      bool
	dst, z, y []float64
}

// actSplit runs j over all of dst.
func actSplit(j actJob) {
	n, cost := len(j.dst), actCost
	if j.a == Tanh && !j.back {
		cost = tanhCost
	}
	if h := claim(n*cost, n); h != nil {
		h.args.act = j
		h.run(&h.args.act, n/2, n)
		return
	}
	j.run(0, 0, n)
}

func (aj *actJob) run(_, lo, hi int) {
	if aj.back {
		aj.a.backward(aj.dst[lo:hi], aj.z[lo:hi], aj.y[lo:hi])
		return
	}
	aj.a.apply(aj.dst[lo:hi], aj.z[lo:hi])
}

// apply computes dst[i] = σ(z[i]); dst may alias z.
func (a Activation) apply(dst, z []float64) {
	dst = dst[:len(z)]
	switch a {
	case Identity:
		copy(dst, z)
	case ReLU:
		reluApply(dst, z)
	case Tanh:
		for i, v := range z {
			dst[i] = math.Tanh(v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// backward computes dst = dY ⊙ dσ/dz element-wise from the activation
// output y = σ(z) alone; dst may alias dY or y. The derivative needs no
// pre-activation: tanh' = 1 − y², and for ReLU y > 0 exactly when z > 0
// (y is z itself when z is not negative, NaN included, and 0 otherwise),
// so the products are those of the dY ⊙ σ'(z) formulation, bit for bit.
func (a Activation) backward(dst, dY, y []float64) {
	dY, y = dY[:len(dst)], y[:len(dst)]
	switch a {
	case Identity:
		copy(dst, dY)
	case ReLU:
		reluBackward(dst, dY, y)
	case Tanh:
		tanhBackward(dst, dY, y)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// backwardInto is backward on matrices, resizing dst to y's shape. Large
// batches split their elements with the helper.
func (a Activation) backwardInto(dst, dY, y *Matrix) {
	shapeEqual("activation backward", dY, y)
	dst.EnsureShape(y.Rows, y.Cols)
	actSplit(actJob{a: a, back: true, dst: dst.Data, z: dY.Data, y: y.Data})
}

// Dense is a fully connected layer y = σ(xW + b) with cached forward state
// for backpropagation. Inputs are batch-major: x is batch×in.
//
// Forward and Backward write into layer-owned scratch matrices that are
// resized in place, so steady-state evaluation allocates nothing. The
// returned matrices are owned by the layer and valid until its next
// Forward/Backward call; callers that retain results must copy them.
// Backward consumes the forward cache (it overwrites the activations with
// dY ⊙ σ'), so it runs at most once per Forward: a second call panics.
type Dense struct {
	In, Out int
	Act     Activation

	W *Matrix // In×Out
	B *Matrix // 1×Out

	gradW *Matrix
	gradB *Matrix

	lastX *Matrix   // batch×In (caller-owned input, not copied)
	y     *Matrix   // activations: xW + b, then σ of it in place
	dX    *Matrix   // backward scratch: returned input gradient
	acc   []float64 // backward scratch: a block of rows of xᵀ dZ
	wT    []float64 // backward scratch: a tile of Wᵀ
}

// NewDense builds a dense layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), B: NewMatrix(1, out),
		gradW: NewMatrix(in, out), gradB: NewMatrix(1, out),
		y: new(Matrix), dX: new(Matrix),
	}
	d.W.XavierInit(rng, in, out)
	return d
}

// Forward computes the layer output and caches intermediates. The returned
// matrix is layer-owned scratch, valid until the next Forward call.
func (d *Dense) Forward(x *Matrix) *Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", x.Cols, d.In))
	}
	MatMulInto(d.y, x, d.W)
	for r := 0; r < d.y.Rows; r++ {
		addInto(d.y.Data[r*d.y.Cols:(r+1)*d.y.Cols], d.B.Data)
	}
	d.lastX = x
	d.Act.applyInto(d.y, d.y)
	return d.y
}

// Backward accumulates parameter gradients for upstream gradient dY and
// returns the gradient with respect to the input (layer-owned scratch).
// Rows of a batch are summed into each gradient element in row order, so
// one call on a B-row batch adds the same values, in the same order, as B
// single-row calls would add to zeroed gradients.
func (d *Dense) Backward(dY *Matrix) *Matrix { return d.backward(dY, d.In) }

// backward is Backward forming the input gradient for the first inCols
// input columns only: dX is batch×inCols.
func (d *Dense) backward(dY *Matrix, inCols int) *Matrix {
	if d.lastX == nil {
		panic("nn: dense backward before forward")
	}
	dZ := d.y
	d.Act.backwardInto(dZ, dY, d.y)
	matMulATAddInto(d.gradW, d.lastX, dZ, &d.acc)
	// Bias gradient: column sums of dZ, row by row.
	for r := 0; r < dZ.Rows; r++ {
		addInto(d.gradB.Data, dZ.Data[r*dZ.Cols:(r+1)*dZ.Cols])
	}
	// Row j of W yields column j of dZ·Wᵀ, so the first inCols rows give
	// the first inCols columns, each computed as in the full product.
	d.dX.EnsureShape(dZ.Rows, inCols)
	matMulBT(d.dX.Data, dZ.Data, d.W.Data[:inCols*d.Out], d.Out, inCols, &d.wT)
	d.lastX = nil // the activations now hold dZ, not a forward cache
	return d.dX
}

// Params exposes the layer parameters to the optimizer.
func (d *Dense) Params() []Param {
	return []Param{
		{Value: d.W, Grad: d.gradW, Name: "dense.W"},
		{Value: d.B, Grad: d.gradB, Name: "dense.B"},
	}
}

// MLP is a multi-layer perceptron: hidden layers with a shared activation
// followed by an identity output layer.
type MLP struct {
	layers []*Dense
}

// NewMLP builds an MLP with the given hidden sizes (e.g. 256, 256 for the
// paper's default actor/critic heads) and output dimension.
func NewMLP(rng *rand.Rand, in int, hidden []int, out int, act Activation) *MLP {
	m := &MLP{}
	prev := in
	for _, h := range hidden {
		m.layers = append(m.layers, NewDense(rng, prev, h, act))
		prev = h
	}
	m.layers = append(m.layers, NewDense(rng, prev, out, Identity))
	return m
}

// Forward runs all layers. Rows of x are independent samples: evaluating a
// row-stacked batch produces, row for row, the identical results (and
// floating-point operation sequence) as evaluating each row alone, which
// the batched-equals-single differential tests assert. The returned matrix
// is scratch owned by the output layer.
func (m *MLP) Forward(x *Matrix) *Matrix {
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward backpropagates and returns the gradient with respect to the
// first inCols input columns, batch×inCols (scratch owned by the first
// layer). The columns after them are taken as constants: no gradient is
// formed for them, and inCols 0 forms none at all.
func (m *MLP) Backward(dY *Matrix, inCols int) *Matrix {
	if in := m.layers[0].In; inCols < 0 || inCols > in {
		panic(fmt.Sprintf("nn: mlp input gradient for %d of %d columns", inCols, in))
	}
	for i := len(m.layers) - 1; i > 0; i-- {
		dY = m.layers[i].Backward(dY)
	}
	return m.layers[0].backward(dY, inCols)
}

// Params lists all layer parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
