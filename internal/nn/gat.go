package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// gatLeakySlope is the LeakyReLU slope of the attention scores (the value
// used by Veličković et al.).
const gatLeakySlope = 0.2

// GATLayer is a single-head Graph Attention layer (Veličković et al.): the
// §IV-C alternative to GCN. Attention coefficients are computed per edge
// with a LeakyReLU-activated additive score and normalized by a masked
// softmax over each node's neighborhood: the nonzero pattern of the
// operator it is given, whose values it never reads. Ŝ is nonzero exactly
// where A + I is, so on Ŝ each node attends to its neighbors and itself.
//
// Like GCNLayer, all intermediates live in layer-owned scratch buffers
// resized in place; returned matrices are valid until the next call.
type GATLayer struct {
	In, Out int
	Act     Activation

	W  *Matrix // In×Out
	A1 *Matrix // Out×1: attention weights for the source node
	A2 *Matrix // Out×1: attention weights for the neighbor node

	gradW  *Matrix
	gradA1 *Matrix
	gradA2 *Matrix

	// caches (lastOp/lastH are caller-owned inputs; the rest is scratch)
	lastOp *Matrix
	lastH  *Matrix
	z      *Matrix
	raw    *Matrix // unactivated attention scores (only valid where op is nonzero)
	alpha  *Matrix
	y      *Matrix // the aggregate α Z, then σ of it in place

	src, dst []float64 // per-node attention score scratch

	dS        *Matrix // backward scratch
	dZ        *Matrix
	dH        *Matrix
	acc       []float64 // one row of Hᵀ dZ
	wT        []float64 // a tile of Wᵀ
	dSrc      []float64
	dDst      []float64
	dAlphaRow []float64
}

// NewGATLayer builds a layer with Xavier-initialized parameters.
func NewGATLayer(rng *rand.Rand, in, out int, act Activation) *GATLayer {
	l := &GATLayer{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), A1: NewMatrix(out, 1), A2: NewMatrix(out, 1),
		gradW: NewMatrix(in, out), gradA1: NewMatrix(out, 1), gradA2: NewMatrix(out, 1),
		z: new(Matrix), raw: new(Matrix), alpha: new(Matrix), y: new(Matrix),
		dS: new(Matrix), dZ: new(Matrix), dH: new(Matrix),
	}
	l.W.XavierInit(rng, in, out)
	l.A1.XavierInit(rng, out, 1)
	l.A2.XavierInit(rng, out, 1)
	return l
}

// Forward computes the attention aggregation over the nonzero pattern of
// op. The returned matrix is layer-owned scratch.
func (l *GATLayer) Forward(op, h *Matrix) *Matrix {
	if h.Cols != l.In {
		panic(fmt.Sprintf("nn: gat input features %d, want %d", h.Cols, l.In))
	}
	n := h.Rows
	MatMulInto(l.z, h, l.W)
	z := l.z

	// Per-node source/neighbor scores.
	l.src = ensureLen(l.src, n)
	l.dst = ensureLen(l.dst, n)
	for i := 0; i < n; i++ {
		var s1, s2 float64
		for c := 0; c < l.Out; c++ {
			s1 += z.At(i, c) * l.A1.Data[c]
			s2 += z.At(i, c) * l.A2.Data[c]
		}
		l.src[i] = s1
		l.dst[i] = s2
	}

	l.raw.EnsureShape(n, n)
	l.raw.Zero()
	l.alpha.EnsureShape(n, n)
	l.alpha.Zero()
	raw, alpha := l.raw, l.alpha
	for i := 0; i < n; i++ {
		maxPre := math.Inf(-1)
		for j := 0; j < n; j++ {
			if op.At(i, j) == 0 {
				continue
			}
			r := l.src[i] + l.dst[j]
			raw.Set(i, j, r)
			pre := leaky(r)
			if pre > maxPre {
				maxPre = pre
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			if op.At(i, j) == 0 {
				continue
			}
			e := math.Exp(leaky(raw.At(i, j)) - maxPre)
			alpha.Set(i, j, e)
			sum += e
		}
		for j := 0; j < n; j++ {
			if op.At(i, j) == 0 {
				continue
			}
			alpha.Set(i, j, alpha.At(i, j)/sum)
		}
	}

	MatMulInto(l.y, alpha, z)
	l.lastOp, l.lastH = op, h
	l.Act.applyInto(l.y, l.y)
	return l.y
}

func leaky(x float64) float64 {
	if x > 0 {
		return x
	}
	return gatLeakySlope * x
}

func leakyGrad(x float64) float64 {
	if x > 0 {
		return 1
	}
	return gatLeakySlope
}

// Backward accumulates parameter gradients and returns dH.
func (l *GATLayer) Backward(dY *Matrix) *Matrix {
	if l.lastH == nil {
		panic("nn: gat backward before forward")
	}
	n := l.lastH.Rows
	l.Act.backwardInto(l.dS, dY, l.y)
	dS := l.dS

	// dZ from the aggregation: dZ = αᵀ dS.
	l.dZ.EnsureShape(n, l.Out)
	l.dZ.Zero()
	matMulATAddInto(l.dZ, l.alpha, dS, &l.acc)
	dZ := l.dZ

	// dα_ij = dS_i · Z_j for edges; then masked softmax backward per row.
	l.dSrc = ensureLen(l.dSrc, n)
	l.dDst = ensureLen(l.dDst, n)
	l.dAlphaRow = ensureLen(l.dAlphaRow, n)
	dSrc, dDst := l.dSrc, l.dDst
	for i := range dSrc {
		dSrc[i] = 0
		dDst[i] = 0
	}
	for i := 0; i < n; i++ {
		// Row dot products.
		var rowDot float64 // Σ_k α_ik dα_ik
		dAlphaRow := l.dAlphaRow
		for j := range dAlphaRow {
			dAlphaRow[j] = 0
		}
		for j := 0; j < n; j++ {
			if l.lastOp.At(i, j) == 0 {
				continue
			}
			var dot float64
			for c := 0; c < l.Out; c++ {
				dot += dS.At(i, c) * l.z.At(j, c)
			}
			dAlphaRow[j] = dot
			rowDot += l.alpha.At(i, j) * dot
		}
		for j := 0; j < n; j++ {
			if l.lastOp.At(i, j) == 0 {
				continue
			}
			dPre := l.alpha.At(i, j) * (dAlphaRow[j] - rowDot)
			dRaw := dPre * leakyGrad(l.raw.At(i, j))
			dSrc[i] += dRaw
			dDst[j] += dRaw
		}
	}
	// Attention-vector gradients and their Z contributions.
	for i := 0; i < n; i++ {
		for c := 0; c < l.Out; c++ {
			l.gradA1.Data[c] += dSrc[i] * l.z.At(i, c)
			l.gradA2.Data[c] += dDst[i] * l.z.At(i, c)
			dZ.Data[i*l.Out+c] += dSrc[i]*l.A1.Data[c] + dDst[i]*l.A2.Data[c]
		}
	}

	matMulATAddInto(l.gradW, l.lastH, dZ, &l.acc)
	matMulBTInto(l.dH, dZ, l.W, &l.wT)
	return l.dH
}

// Params exposes the layer parameters.
func (l *GATLayer) Params() []Param {
	return []Param{
		{Value: l.W, Grad: l.gradW, Name: "gat.W"},
		{Value: l.A1, Grad: l.gradA1, Name: "gat.A1"},
		{Value: l.A2, Grad: l.gradA2, Name: "gat.A2"},
	}
}

// GAT is a stack of GAT layers, interface-compatible with GCN: it takes the
// same normalized propagation operator and attends over its nonzero
// pattern.
type GAT struct {
	layers []*GATLayer

	ops, feats []*Matrix // batch inputs (caller-owned, from SetBatch)
	out        Matrix    // batch embeddings, one block per observation
	block      Matrix    // view of one observation's block of dY
}

// NewGAT builds numLayers GAT layers mapping inFeatures to embedDim with
// hiddenDim in between, mirroring NewGCN.
func NewGAT(rng *rand.Rand, numLayers, inFeatures, hiddenDim, embedDim int) *GAT {
	g := &GAT{}
	if numLayers <= 0 {
		return g
	}
	prev := inFeatures
	for i := 0; i < numLayers; i++ {
		out := hiddenDim
		if i == numLayers-1 {
			out = embedDim
		}
		g.layers = append(g.layers, NewGATLayer(rng, prev, out, ReLU))
		prev = out
	}
	return g
}

// NumLayers returns the number of layers.
func (g *GAT) NumLayers() int { return len(g.layers) }

// OutFeatures mirrors GCN.OutFeatures.
func (g *GAT) OutFeatures(inFeatures int) int {
	if len(g.layers) == 0 {
		return inFeatures
	}
	return g.layers[len(g.layers)-1].Out
}

// Forward runs all layers over the shared operator.
func (g *GAT) Forward(op, h *Matrix) *Matrix {
	for _, l := range g.layers {
		h = l.Forward(op, h)
	}
	return h
}

// Backward backpropagates through all layers.
func (g *GAT) Backward(dY *Matrix) *Matrix {
	for i := len(g.layers) - 1; i >= 0; i-- {
		dY = g.layers[i].Backward(dY)
	}
	return dY
}

// SetBatch fixes the observations ForwardBatch and BackwardBatch evaluate:
// ops[b] and feats[b] are observation b's propagation operator and node
// features. Both slices are retained until the next SetBatch; an empty
// batch releases them.
func (g *GAT) SetBatch(ops, feats []*Matrix) {
	if len(ops) != len(feats) {
		panic(fmt.Sprintf("nn: gat batch of %d operators and %d feature blocks", len(ops), len(feats)))
	}
	g.ops, g.feats = ops, feats
}

// ForwardBatch evaluates the batch fixed by SetBatch, one observation at a
// time, and returns the embeddings stacked as one block per observation
// (GAT-owned scratch, valid until the next call).
func (g *GAT) ForwardBatch() *Matrix {
	if len(g.feats) == 0 {
		panic("nn: gat batch forward before SetBatch")
	}
	for b := range g.feats {
		y := g.Forward(g.ops[b], g.feats[b])
		if b == 0 {
			g.out.EnsureShape(len(g.feats)*y.Rows, y.Cols)
		}
		copy(g.out.Data[b*len(y.Data):(b+1)*len(y.Data)], y.Data)
	}
	return &g.out
}

// BackwardBatch backpropagates a batch of embedding gradients (stacked like
// ForwardBatch's result), observation by observation in batch order. The
// layers cache one observation's attention at a time, so each observation
// is forwarded again right before its backward pass; the forward is
// deterministic, so this reproduces the cached state exactly.
func (g *GAT) BackwardBatch(dY *Matrix) {
	if len(g.layers) == 0 {
		return
	}
	rows := dY.Rows / len(g.feats)
	g.block.Rows, g.block.Cols = rows, dY.Cols
	for b := range g.feats {
		g.Forward(g.ops[b], g.feats[b])
		g.block.Data = dY.Data[b*rows*dY.Cols : (b+1)*rows*dY.Cols]
		g.Backward(&g.block)
	}
}

// Params lists all parameters.
func (g *GAT) Params() []Param {
	var ps []Param
	for _, l := range g.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
