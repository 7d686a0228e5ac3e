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
// may be z itself.
func (a Activation) applyInto(dst, z *Matrix) {
	dst.EnsureShape(z.Rows, z.Cols)
	a.apply(dst.Data, z.Data)
}

// apply computes dst[i] = σ(z[i]); dst may alias z.
func (a Activation) apply(dst, z []float64) {
	dst = dst[:len(z)]
	switch a {
	case Identity:
		copy(dst, z)
	case ReLU:
		for i, v := range z {
			if v < 0 {
				dst[i] = 0
			} else {
				dst[i] = v
			}
		}
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
		for i, v := range y {
			if v > 0 {
				dst[i] = dY[i] * 1
			} else {
				// dY·0, not the constant 0: keeps zero signs and NaN
				// propagation bit-identical to the Hadamard formulation.
				dst[i] = dY[i] * 0
			}
		}
	case Tanh:
		for i, v := range y {
			dst[i] = dY[i] * (1 - v*v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
}

// backwardInto is backward on matrices, resizing dst to y's shape.
func (a Activation) backwardInto(dst, dY, y *Matrix) {
	shapeEqual("activation backward", dY, y)
	dst.EnsureShape(y.Rows, y.Cols)
	a.backward(dst.Data, dY.Data, y.Data)
}

// Dense is a fully connected layer y = σ(xW + b) with cached forward state
// for backpropagation. Inputs are batch-major: x is batch×in.
//
// Forward and Backward write into layer-owned scratch matrices that are
// resized in place, so steady-state evaluation allocates nothing. The
// returned matrices are owned by the layer and valid until its next
// Forward/Backward call; callers that retain results must copy them.
// Backward consumes the forward cache (it overwrites the activations with
// dY ⊙ σ'), so it runs at most once per Forward.
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
	acc   []float64 // backward scratch: one row of xᵀ dZ
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
		row := d.y.Data[r*d.y.Cols : (r+1)*d.y.Cols]
		for c, bv := range d.B.Data {
			row[c] += bv
		}
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
func (d *Dense) Backward(dY *Matrix) *Matrix {
	if d.lastX == nil {
		panic("nn: dense backward before forward")
	}
	dZ := d.y
	d.Act.backwardInto(dZ, dY, d.y)
	matMulATAddInto(d.gradW, d.lastX, dZ, &d.acc)
	// Bias gradient: column sums of dZ.
	for r := 0; r < dZ.Rows; r++ {
		for c := 0; c < dZ.Cols; c++ {
			d.gradB.Data[c] += dZ.Data[r*dZ.Cols+c]
		}
	}
	matMulBTInto(d.dX, dZ, d.W)
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

// Backward backpropagates and returns the input gradient (scratch owned by
// the first layer).
func (m *MLP) Backward(dY *Matrix) *Matrix {
	for i := len(m.layers) - 1; i >= 0; i-- {
		dY = m.layers[i].Backward(dY)
	}
	return dY
}

// Params lists all layer parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
