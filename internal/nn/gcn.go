package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// NormalizeAdjacency computes Ŝ = D^{-1/2}(A + I)D^{-1/2}, the symmetric
// renormalized propagation operator of Eq. 4 (Kipf & Welling), where D is
// the degree matrix of the self-connected adjacency A + I.
func NormalizeAdjacency(adj *Matrix) *Matrix {
	if adj.Rows != adj.Cols {
		panic(fmt.Sprintf("nn: adjacency must be square, got %dx%d", adj.Rows, adj.Cols))
	}
	n := adj.Rows
	s := adj.Clone()
	for i := 0; i < n; i++ {
		s.Data[i*n+i]++ // A + I
	}
	dInvSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			deg += s.Data[i*n+j]
		}
		dInvSqrt[i] = 1 / math.Sqrt(deg) // deg >= 1 thanks to self loop
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.Data[i*n+j] *= dInvSqrt[i] * dInvSqrt[j]
		}
	}
	return s
}

// GCNLayer implements one layer of Eq. 4: H' = σ(Ŝ H W). The propagation
// operator Ŝ varies per observation (the topology changes every step), so
// it is an input to Forward rather than a layer parameter.
//
// All intermediates live in layer-owned scratch matrices resized in place,
// so steady-state Forward/Backward allocate nothing. Returned matrices are
// valid until the layer's next Forward/Backward call.
type GCNLayer struct {
	In, Out int
	Act     Activation

	W     *Matrix
	gradW *Matrix

	lastS *Matrix // Ŝ (caller-owned)
	sh    *Matrix // Ŝ H scratch
	y     *Matrix // activations: Ŝ H W, then σ of it in place

	dZ  *Matrix   // backward scratch
	dZW *Matrix   // backward scratch: dZ Wᵀ
	dH  *Matrix   // backward scratch: returned input gradient
	acc []float64 // backward scratch: one row of (ŜH)ᵀ dZ

	blockSH, blockY []float64 // Ŝ H and activations of one batch observation
}

// NewGCNLayer builds a GCN layer with Xavier-initialized weights.
func NewGCNLayer(rng *rand.Rand, in, out int, act Activation) *GCNLayer {
	l := &GCNLayer{
		In: in, Out: out, Act: act,
		W: NewMatrix(in, out), gradW: NewMatrix(in, out),
		sh: new(Matrix), y: new(Matrix),
		dZ: new(Matrix), dZW: new(Matrix), dH: new(Matrix),
	}
	l.W.XavierInit(rng, in, out)
	return l
}

// Forward computes σ(Ŝ H W) and caches intermediates for Backward. The
// returned matrix is layer-owned scratch.
func (l *GCNLayer) Forward(sHat, h *Matrix) *Matrix {
	if h.Cols != l.In {
		panic(fmt.Sprintf("nn: gcn input features %d, want %d", h.Cols, l.In))
	}
	MatMulInto(l.sh, sHat, h)
	MatMulInto(l.y, l.sh, l.W)
	l.lastS = sHat
	l.Act.applyInto(l.y, l.y)
	return l.y
}

// Backward accumulates dW and returns dH, the gradient with respect to the
// input node features. Ŝ is symmetric, so dH = Ŝ (dZ Wᵀ).
func (l *GCNLayer) Backward(dY *Matrix) *Matrix {
	if l.lastS == nil {
		panic("nn: gcn backward before forward")
	}
	l.Act.backwardInto(l.dZ, dY, l.y)
	matMulATAddInto(l.gradW, l.sh, l.dZ, &l.acc)
	matMulBTInto(l.dZW, l.dZ, l.W)
	MatMulInto(l.dH, l.lastS, l.dZW)
	return l.dH
}

// Params exposes the layer weight to the optimizer.
func (l *GCNLayer) Params() []Param {
	return []Param{{Value: l.W, Grad: l.gradW, Name: "gcn.W"}}
}

// colSparse stores a stack of n×f blocks column by column, keeping only
// the nonzero entries: column c of block b holds the entries
// off[b·f+c] ≤ e < off[b·f+c+1], with row index row[e] (increasing) and
// value val[e]. Products with it visit exactly the nonzero elements a
// dense zero-skipping kernel multiplies, in the same order per output.
type colSparse struct {
	n, f int
	off  []int32
	row  []int32
	val  []float64
}

// reset empties the store for blocks of n×f with room for nnz entries.
func (s *colSparse) reset(n, f, nnz int) {
	s.n, s.f = n, f
	s.off = append(s.off[:0], 0)
	if cap(s.val) < nnz {
		s.row, s.val = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	s.row, s.val = s.row[:0], s.val[:0]
}

// appendBlock stores the dense row-major n×f block m.
func (s *colSparse) appendBlock(m []float64) {
	for c := 0; c < s.f; c++ {
		for r := 0; r < s.n; r++ {
			if v := m[r*s.f+c]; v != 0 {
				s.row = append(s.row, int32(r))
				s.val = append(s.val, v)
			}
		}
		s.off = append(s.off, int32(len(s.val)))
	}
}

// mulInto computes dst (n×k) = block b × w (f×k). Each output element sums
// its products over the block's columns in order, as matMul on the dense
// block does.
func (s *colSparse) mulInto(dst []float64, b int, w []float64, k int) {
	clear(dst)
	for c := 0; c < s.f; c++ {
		wrow := w[c*k : (c+1)*k]
		for e := s.off[b*s.f+c]; e < s.off[b*s.f+c+1]; e++ {
			v, orow := s.val[e], dst[int(s.row[e])*k:][:len(wrow)]
			for j, wv := range wrow {
				orow[j] += v * wv
			}
		}
	}
}

// atAdd adds (block b)ᵀ × dZ (n×k) into dst (f×k), one row of the product
// at a time through the scratch *acc — matMulATAdd on the dense block.
func (s *colSparse) atAdd(dst []float64, b int, dZ []float64, k int, acc *[]float64) {
	*acc = ensureLen(*acc, k)
	row := *acc
	for c := 0; c < s.f; c++ {
		clear(row)
		for e := s.off[b*s.f+c]; e < s.off[b*s.f+c+1]; e++ {
			v, zrow := s.val[e], dZ[int(s.row[e])*k:][:len(row)]
			for j, zv := range zrow {
				row[j] += v * zv
			}
		}
		orow := dst[c*k : (c+1)*k][:len(row)]
		for j, v := range row {
			orow[j] += v
		}
	}
}

// GCN is a stack of GCN layers over a per-observation propagation operator.
// A zero-layer GCN is the identity on the node features (the GCN-0 setup of
// the sensitivity test, Fig. 5a).
//
// Forward and Backward evaluate one observation. SetBatch, ForwardBatch and
// BackwardBatch evaluate a batch of observations, the shape of a PPO update,
// where the same batch is evaluated many times under changing weights.
// Every row of every matmul is computed as in a single-observation pass,
// and gradients add one observation's sum at a time in batch order, so a
// batch pass reproduces the single-observation passes bit for bit.
type GCN struct {
	layers []*GCNLayer

	// batch state (SetBatch); the scratch slices hold one observation
	ops         []*Matrix // per-observation Ŝ (caller-owned)
	sx          colSparse // per-observation Ŝ X, the first layer's input
	out         Matrix    // batch embeddings (or features), one block each
	dZ, dZW, dH []float64 // one observation's backward intermediates
	acc         []float64 // one row of a weight gradient
}

// NewGCN builds `numLayers` GCN layers mapping the input feature dimension
// to embedDim node features, with hiddenDim features in between. ReLU is
// used on hidden layers and on the final layer, matching the standard
// Kipf-Welling construction.
func NewGCN(rng *rand.Rand, numLayers, inFeatures, hiddenDim, embedDim int) *GCN {
	g := &GCN{}
	if numLayers <= 0 {
		return g
	}
	prev := inFeatures
	for i := 0; i < numLayers; i++ {
		out := hiddenDim
		if i == numLayers-1 {
			out = embedDim
		}
		g.layers = append(g.layers, NewGCNLayer(rng, prev, out, ReLU))
		prev = out
	}
	return g
}

// NumLayers returns the number of GCN layers.
func (g *GCN) NumLayers() int { return len(g.layers) }

// OutFeatures returns the per-node output feature dimension for the given
// input feature dimension (identity when the GCN has no layers).
func (g *GCN) OutFeatures(inFeatures int) int {
	if len(g.layers) == 0 {
		return inFeatures
	}
	return g.layers[len(g.layers)-1].Out
}

// Forward runs all layers over the propagation operator sHat. The returned
// matrix is scratch owned by the last layer (or the input itself for a
// zero-layer GCN).
func (g *GCN) Forward(sHat, h *Matrix) *Matrix {
	for _, l := range g.layers {
		h = l.Forward(sHat, h)
	}
	return h
}

// Backward backpropagates through all layers and returns the gradient with
// respect to the input features.
func (g *GCN) Backward(dY *Matrix) *Matrix {
	for i := len(g.layers) - 1; i >= 0; i-- {
		dY = g.layers[i].Backward(dY)
	}
	return dY
}

// SetBatch fixes the observations ForwardBatch and BackwardBatch evaluate:
// ops[b] and feats[b] are observation b's n×n operator Ŝ and n×F node
// features. The features are constants, so the first layer's Ŝ X is
// computed here, once for every later forward of the batch, and kept by
// its nonzero columns. ops is retained until the next SetBatch; an empty
// batch releases it.
func (g *GCN) SetBatch(ops, feats []*Matrix) {
	if len(ops) != len(feats) {
		panic(fmt.Sprintf("nn: gcn batch of %d operators and %d feature blocks", len(ops), len(feats)))
	}
	if len(ops) == 0 {
		g.ops = nil
		return
	}
	n, f := feats[0].Rows, feats[0].Cols
	for b := range feats {
		if ops[b].Rows != n || ops[b].Cols != n || feats[b].Rows != n || feats[b].Cols != f {
			panic(fmt.Sprintf("nn: gcn batch observation %d is %dx%d / %dx%d, want %dx%d / %dx%d",
				b, ops[b].Rows, ops[b].Cols, feats[b].Rows, feats[b].Cols, n, n, n, f))
		}
	}
	g.ops = ops
	if len(g.layers) == 0 {
		g.out.EnsureShape(len(feats)*n, f)
		for b, x := range feats {
			copy(g.out.Data[b*n*f:(b+1)*n*f], x.Data)
		}
		return
	}
	// Two passes, so the store is allocated once at its exact size.
	l := g.layers[0]
	l.blockSH = ensureLen(l.blockSH, n*f)
	nnz := 0
	for b, x := range feats {
		matMul(l.blockSH, ops[b].Data, x.Data, n, f)
		for _, v := range l.blockSH {
			if v != 0 {
				nnz++
			}
		}
	}
	g.sx.reset(n, f, nnz)
	for b, x := range feats {
		matMul(l.blockSH, ops[b].Data, x.Data, n, f)
		g.sx.appendBlock(l.blockSH)
	}
}

// forwardBlock runs batch observation b through every layer, leaving each
// layer's propagated input and activations in its block scratch, and
// returns the last layer's activations.
func (g *GCN) forwardBlock(b int) []float64 {
	n, s := g.sx.n, g.ops[b]
	var h []float64
	for i, l := range g.layers {
		l.blockY = ensureLen(l.blockY, n*l.Out)
		if i == 0 {
			g.sx.mulInto(l.blockY, b, l.W.Data, l.Out)
		} else {
			l.blockSH = ensureLen(l.blockSH, n*l.In)
			matMul(l.blockSH, s.Data, h, n, l.In)
			matMul(l.blockY, l.blockSH, l.W.Data, l.In, l.Out)
		}
		l.Act.apply(l.blockY, l.blockY)
		h = l.blockY
	}
	return h
}

// ForwardBatch evaluates the batch fixed by SetBatch and returns the
// embeddings, one n-row block per observation: GCN-owned scratch (the
// stacked features for a zero-layer GCN), valid until the next call.
func (g *GCN) ForwardBatch() *Matrix {
	if len(g.ops) == 0 {
		panic("nn: gcn batch forward before SetBatch")
	}
	if len(g.layers) == 0 {
		return &g.out
	}
	n, e := g.sx.n, g.layers[len(g.layers)-1].Out
	g.out.EnsureShape(len(g.ops)*n, e)
	for b := range g.ops {
		copy(g.out.Data[b*n*e:(b+1)*n*e], g.forwardBlock(b))
	}
	return &g.out
}

// BackwardBatch backpropagates embedding gradients dY (stacked like
// ForwardBatch's result) and accumulates the weight gradients, one
// observation at a time in batch order. Only the embeddings are kept
// between the passes: each observation's hidden activations are
// recomputed from the cached Ŝ X right before its backward pass, which
// costs a small share of the sparse first-layer product instead of a
// batch-sized store per layer. The forward is deterministic, so the
// recomputed values are the ones ForwardBatch produced. The input features
// are constants, so no gradient is formed for them.
func (g *GCN) BackwardBatch(dY *Matrix) {
	if len(g.layers) == 0 {
		return
	}
	n, s := g.sx.n, g.ops
	e := g.layers[len(g.layers)-1].Out
	for b := range s {
		g.forwardBlock(b)
		d := dY.Data[b*n*e : (b+1)*n*e]
		for i := len(g.layers) - 1; i >= 0; i-- {
			l := g.layers[i]
			g.dZ = ensureLen(g.dZ, n*l.Out)
			l.Act.backward(g.dZ, d, l.blockY)
			if i == 0 {
				g.sx.atAdd(l.gradW.Data, b, g.dZ, l.Out, &g.acc)
				break
			}
			matMulATAdd(l.gradW.Data, l.blockSH, g.dZ, l.In, l.Out, &g.acc)
			g.dZW = ensureLen(g.dZW, n*l.In)
			matMulBT(g.dZW, g.dZ, l.W.Data, l.Out, l.In)
			g.dH = ensureLen(g.dH, n*l.In)
			matMul(g.dH, s[b].Data, g.dZW, n, l.In)
			d = g.dH
		}
	}
}

// Params lists all layer weights.
func (g *GCN) Params() []Param {
	var ps []Param
	for _, l := range g.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
