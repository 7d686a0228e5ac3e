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
	acc []float64 // backward scratch: a block of rows of (ŜH)ᵀ dZ
	wT  []float64 // backward scratch: a tile of Wᵀ

	batchY Matrix // activations of a whole batch, one n-row block each
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
	matMulBTInto(l.dZW, l.dZ, l.W, &l.wT)
	MatMulInto(l.dH, l.lastS, l.dZW)
	return l.dH
}

// Params exposes the layer weight to the optimizer.
func (l *GCNLayer) Params() []Param {
	return []Param{{Value: l.W, Grad: l.gradW, Name: "gcn.W"}}
}

// sparseBlocks stores a stack of n×f blocks by their nonzero entries, in
// two orders. Column c of block b holds the entries cOff[b·f+c] ≤ e <
// cOff[b·f+c+1], with row index cIdx[e] (increasing) and value cVal[e];
// row r holds rOff[b·n+r] ≤ e < rOff[b·n+r+1], with column index rIdx[e]
// (increasing) and value rVal[e]. A product with a block, or with its
// transpose, is one sparseRows call over the block's rows, or columns, of
// entries: each output row visits exactly the nonzero elements a dense
// zero-skipping kernel multiplies, in the same order.
type sparseBlocks struct {
	n, f       int
	cOff, rOff []int32
	cIdx, rIdx []uint32
	cVal, rVal []float64
}

// reset empties the store for blocks of n×f with room for nnz entries.
func (s *sparseBlocks) reset(n, f, nnz int) {
	s.n, s.f = n, f
	s.cOff, s.rOff = append(s.cOff[:0], 0), append(s.rOff[:0], 0)
	if cap(s.cVal) < nnz {
		s.cIdx, s.cVal = make([]uint32, 0, nnz), make([]float64, 0, nnz)
		s.rIdx, s.rVal = make([]uint32, 0, nnz), make([]float64, 0, nnz)
	}
	s.cIdx, s.cVal, s.rIdx, s.rVal = s.cIdx[:0], s.cVal[:0], s.rIdx[:0], s.rVal[:0]
}

// appendBlock stores the dense row-major n×f block m.
func (s *sparseBlocks) appendBlock(m []float64) {
	for c := 0; c < s.f; c++ {
		for r := 0; r < s.n; r++ {
			if v := m[r*s.f+c]; v != 0 {
				s.cIdx = append(s.cIdx, uint32(r))
				s.cVal = append(s.cVal, v)
			}
		}
		s.cOff = append(s.cOff, int32(len(s.cVal)))
	}
	for r := 0; r < s.n; r++ {
		for c, v := range m[r*s.f : (r+1)*s.f] {
			if v != 0 {
				s.rIdx = append(s.rIdx, uint32(c))
				s.rVal = append(s.rVal, v)
			}
		}
		s.rOff = append(s.rOff, int32(len(s.rVal)))
	}
}

// mulInto computes dst (n×k) = block b × w, for w of f rows ldw apart
// (k ≤ ldw columns), a row of entries per output row: matMul on the dense
// block. Each element's sum is the same whichever columns of w it is
// computed with.
func (s *sparseBlocks) mulInto(dst []float64, b int, w []float64, k, ldw int) {
	sparseRows(dst, k, k, s.rOff[b*s.n:(b+1)*s.n+1], s.rVal, s.rIdx, s.f, w, ldw, false, nil)
}

// atAdd adds rows [lo, hi) of (block b)ᵀ × dZ (n×k) into dst (f×k), each
// row of the product summed and then added once: atAddRows on the dense
// block. The scratch row (at least k long) serves the kernels that sum a
// row apart from adding it; the AVX-512 kernel adds each finished sum
// straight into dst.
func (s *sparseBlocks) atAdd(dst []float64, b int, dZ []float64, k int, row []float64, lo, hi int) {
	sparseRows(dst[lo*k:], k, k, s.cOff[b*s.f+lo:b*s.f+hi+1], s.cVal, s.cIdx, s.n, dZ, k, true, row)
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
// batch pass reproduces the single-observation passes bit for bit. A large
// batch splits each pass with the helper: by observation, or by the rows
// of a weight gradient.
type GCN struct {
	layers []*GCNLayer

	// batch state (SetBatch)
	batch     int          // observations in the batch
	work      int          // multiply-adds of one pass over the batch
	sx        sparseBlocks // per-observation Ŝ X, the first layer's input
	sops      sparseBlocks // per-observation Ŝ, for the layers past the first
	out       Matrix       // stacked features of a zero-layer GCN
	forwarded bool         // ForwardBatch ran since SetBatch or BackwardBatch

	// backward stores, one n-row block per observation: layer i's σ′
	// product in dZ[(top−i)%2], where layer i+1 left its input gradient
	dZ    [2][]float64
	parts [2]gcnPart // each part's scratch for one observation
}

// gcnPart is one part's scratch in a batch pass. A part rewrites its
// slice headers as it goes; the padding keeps the two parts' headers off
// a shared cache line.
type gcnPart struct {
	sh, dZW []float64 // Ŝ H, dZ Wᵀ
	acc, wT []float64 // a block of rows of a weight gradient, a tile of Wᵀ
	_       [64]byte
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
// its nonzeros; so is Ŝ itself when there are layers past the first.
// Neither slice is retained.
func (g *GCN) SetBatch(ops, feats []*Matrix) {
	if len(ops) != len(feats) {
		panic(fmt.Sprintf("nn: gcn batch of %d operators and %d feature blocks", len(ops), len(feats)))
	}
	g.batch, g.forwarded = 0, false
	if len(ops) == 0 {
		return
	}
	n, f := feats[0].Rows, feats[0].Cols
	for b := range feats {
		if ops[b].Rows != n || ops[b].Cols != n || feats[b].Rows != n || feats[b].Cols != f {
			panic(fmt.Sprintf("nn: gcn batch observation %d is %dx%d / %dx%d, want %dx%d / %dx%d",
				b, ops[b].Rows, ops[b].Cols, feats[b].Rows, feats[b].Cols, n, n, n, f))
		}
	}
	g.batch = len(ops)
	if len(g.layers) == 0 {
		g.out.EnsureShape(len(feats)*n, f)
		for b, x := range feats {
			copy(g.out.Data[b*n*f:(b+1)*n*f], x.Data)
		}
		return
	}
	// Two passes, so the store is allocated once at its exact size.
	sh := ensureLen(g.parts[0].sh, n*f)
	g.parts[0].sh = sh
	nnz := 0
	for b, x := range feats {
		matMul(sh, ops[b].Data, x.Data, n, f)
		nnz += nonzeros(sh)
	}
	g.sx.reset(n, f, nnz)
	for b, x := range feats {
		matMul(sh, ops[b].Data, x.Data, n, f)
		g.sx.appendBlock(sh)
	}
	g.work = len(g.sx.rVal) * g.layers[0].Out
	if len(g.layers) == 1 {
		return
	}
	nnz = 0
	for _, s := range ops {
		nnz += nonzeros(s.Data)
	}
	g.sops.reset(n, n, nnz)
	for _, s := range ops {
		g.sops.appendBlock(s.Data)
	}
	for _, l := range g.layers[1:] {
		g.work += nnz*l.In + g.batch*n*l.In*l.Out
	}
}

// nonzeros counts the nonzero elements of v.
func nonzeros(v []float64) int {
	n := 0
	for _, x := range v {
		if x != 0 {
			n++
		}
	}
	return n
}

// ForwardBatch evaluates the batch fixed by SetBatch and returns the
// embeddings, one n-row block per observation: the last layer's store (the
// stacked features for a zero-layer GCN), valid until the next call. Every
// layer keeps its activations for the whole batch in a store it owns,
// sized on first use (B·n·Out floats), for BackwardBatch to read.
func (g *GCN) ForwardBatch() *Matrix {
	if g.batch == 0 {
		panic("nn: gcn batch forward before SetBatch")
	}
	g.forwarded = true
	if len(g.layers) == 0 {
		return &g.out
	}
	for _, l := range g.layers {
		l.batchY.EnsureShape(g.batch*g.sx.n, l.Out)
	}
	g.split(gcnForward, 0)
	return &g.layers[len(g.layers)-1].batchY
}

// BackwardBatch backpropagates embedding gradients dY (stacked like
// ForwardBatch's result) and accumulates the weight gradients, adding one
// observation's sum at a time in batch order. It reads the activations
// the last ForwardBatch stored; a layer's propagated input Ŝ H is
// recomputed with its weight gradient, one sparse product per observation,
// rather than kept from the forward. The input features are constants, so
// no gradient is formed for them. Each ForwardBatch serves one
// BackwardBatch: without one since the last SetBatch or BackwardBatch, it
// panics.
//
// It runs layer by layer, each pass over the whole batch: the top layer's
// σ′ products; then per layer its weight gradient, and past the first
// layer its input gradient Ŝ (dZ Wᵀ) with the next layer down's σ′
// product. It keeps B·n·Out floats of σ′ products per layer, in two stores
// that alternate between layers.
func (g *GCN) BackwardBatch(dY *Matrix) {
	if !g.forwarded {
		panic("nn: gcn batch backward without a batch forward")
	}
	g.forwarded = false
	if len(g.layers) == 0 {
		return
	}
	n, top := g.sx.n, len(g.layers)-1
	if e := g.layers[top].Out; dY.Rows != g.batch*n || dY.Cols != e {
		panic(fmt.Sprintf("nn: gcn batch backward of %dx%d, want %dx%d", dY.Rows, dY.Cols, g.batch*n, e))
	}
	var zw [2]int
	for i, l := range g.layers {
		zw[(top-i)%2] = max(zw[(top-i)%2], l.Out)
	}
	for k := range g.dZ {
		g.dZ[k] = ensureLen(g.dZ[k], g.batch*n*zw[k])
	}
	l := g.layers[top]
	l.Act.backward(g.dZ[0][:len(dY.Data)], dY.Data, l.batchY.Data)
	for i := top; i > 0; i-- {
		g.split(gcnGrad, i)
		g.split(gcnUp, i)
	}
	g.split(gcnGrad, 0)
}

// gcnPass is one pass of a batch evaluation.
type gcnPass int

const (
	gcnForward gcnPass = iota // per observation: every layer's activations
	gcnGrad                   // per output row: a layer's weight gradient
	gcnUp                     // per observation: a layer's input gradient, and the σ′ product below
)

// gcnJob is a pass over the batch's observations, or over the rows of a
// layer's weight gradient.
type gcnJob struct {
	g     *GCN
	pass  gcnPass
	layer int
}

// split runs one pass, split with the helper when the batch is large.
func (g *GCN) split(pass gcnPass, layer int) {
	items := g.batch
	if pass == gcnGrad {
		items = g.layers[layer].In
	}
	j := gcnJob{g: g, pass: pass, layer: layer}
	if h := claim(g.work, items); h != nil {
		h.args.gcn = j
		h.run(&h.args.gcn, items/2, items)
		return
	}
	j.run(0, 0, items)
}

func (gj *gcnJob) run(p, lo, hi int) {
	g, i := gj.g, gj.layer
	if gj.pass == gcnGrad {
		g.gradRows(p, i, lo, hi)
		return
	}
	for b := lo; b < hi; b++ {
		if gj.pass == gcnForward {
			g.forwardObs(p, b)
		} else {
			g.up(p, i, b)
		}
	}
}

// forwardObs stores observation b's activations in every layer.
func (g *GCN) forwardObs(p, b int) {
	n, ps := g.sx.n, &g.parts[p]
	var h []float64
	for i, l := range g.layers {
		y := l.batchY.Data[b*n*l.Out : (b+1)*n*l.Out]
		if i == 0 {
			g.sx.mulInto(y, b, l.W.Data, l.Out, l.Out)
		} else {
			ps.sh = ensureLen(ps.sh, n*l.In)
			g.sops.mulInto(ps.sh, b, h, l.In, l.In)
			matMul(y, ps.sh, l.W.Data, l.In, l.Out)
		}
		l.Act.apply(y, y)
		h = y
	}
}

// dZOf is observation b's block of layer i's σ′ product.
func (g *GCN) dZOf(i, b int) []float64 {
	n, w := g.sx.n, g.layers[i].Out
	return g.dZ[(len(g.layers)-1-i)%2][b*n*w : (b+1)*n*w]
}

// up forms observation b's input gradient of layer i > 0, Ŝ (dZ Wᵀ) (Ŝ is
// symmetric), in the block where layer i−1 keeps its σ′ product, and
// turns it into that product in place.
func (g *GCN) up(p, i, b int) {
	n, l, ps := g.sx.n, g.layers[i], &g.parts[p]
	ps.dZW = ensureLen(ps.dZW, n*l.In)
	matMulBT(ps.dZW, g.dZOf(i, b), l.W.Data, l.Out, l.In, &ps.wT)
	d := g.dZOf(i-1, b)
	g.sops.mulInto(d, b, ps.dZW, l.In, l.In)
	g.layers[i-1].Act.backward(d, d, g.layers[i-1].batchY.Data[b*n*l.In:(b+1)*n*l.In])
}

// gradRows adds rows [lo, hi) of layer i's weight gradient, one
// observation at a time in batch order. Past the first layer the rows are
// those of (Ŝ H)ᵀ dZ, so the part recomputes columns [lo, hi) of each
// observation's propagated input Ŝ H, one sparse product.
func (g *GCN) gradRows(p, i, lo, hi int) {
	n, l, ps := g.sx.n, g.layers[i], &g.parts[p]
	ps.acc = ensureLen(ps.acc, maxBlockRows*l.Out)
	w := hi - lo
	if i > 0 {
		ps.sh = ensureLen(ps.sh, n*w)
	}
	for b := 0; b < g.batch; b++ {
		dz := g.dZOf(i, b)
		if i == 0 {
			g.sx.atAdd(l.gradW.Data, b, dz, l.Out, ps.acc, lo, hi)
			continue
		}
		h := g.layers[i-1].batchY.Data[b*n*l.In : (b+1)*n*l.In]
		g.sops.mulInto(ps.sh, b, h[lo:], w, l.In)
		atAddRows(l.gradW.Data[lo*l.Out:], ps.sh, dz, w, l.Out, ps.acc, 0, w)
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
