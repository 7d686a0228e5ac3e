package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// numericalGrad computes the central finite-difference gradient of loss()
// with respect to every element of the parameter matrices.
func numericalGrad(ps []Param, loss func() float64) [][]float64 {
	const eps = 1e-6
	grads := make([][]float64, len(ps))
	for i, p := range ps {
		grads[i] = make([]float64, len(p.Value.Data))
		for j := range p.Value.Data {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			up := loss()
			p.Value.Data[j] = orig - eps
			down := loss()
			p.Value.Data[j] = orig
			grads[i][j] = (up - down) / (2 * eps)
		}
	}
	return grads
}

func assertGradsClose(t *testing.T, ps []Param, numeric [][]float64, tol float64) {
	t.Helper()
	for i, p := range ps {
		for j := range p.Grad.Data {
			a, n := p.Grad.Data[j], numeric[i][j]
			scale := math.Max(1, math.Max(math.Abs(a), math.Abs(n)))
			if math.Abs(a-n)/scale > tol {
				t.Fatalf("param %d (%s) elem %d: analytic %v vs numeric %v", i, p.Name, j, a, n)
			}
		}
	}
}

func TestDenseGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewDense(rng, 4, 3, Tanh)
	x := NewMatrix(2, 4)
	x.XavierInit(rng, 4, 3)
	// Loss: sum of squares of outputs.
	loss := func() float64 {
		y := layer.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	numeric := numericalGrad(layer.Params(), loss)

	ZeroGrads(layer.Params())
	y := layer.Forward(x)
	dY := y.Clone()
	for i := range dY.Data {
		dY.Data[i] *= 2
	}
	layer.Backward(dY)
	assertGradsClose(t, layer.Params(), numeric, 1e-5)
}

// TestDenseSecondBackwardPanics: Backward overwrites the activations with
// dY ⊙ σ', so a second call without a Forward would differentiate that
// instead of the forward cache and silently add a wrong gradient. It must
// panic, leaving the first call's gradient alone.
func TestDenseSecondBackwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewDense(rng, 4, 3, Tanh)
	x := NewMatrix(2, 4)
	x.XavierInit(rng, 4, 3)
	dY := layer.Forward(x).Clone()
	layer.Backward(dY)
	want := layer.Params()[0].Grad.Clone()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Backward without a Forward did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "dense backward before forward") {
			t.Fatalf("unhelpful panic: %v", r)
		}
		for i, g := range layer.Params()[0].Grad.Data {
			if g != want.Data[i] {
				t.Fatalf("weight gradient %d changed: %v, want %v", i, g, want.Data[i])
			}
		}
	}()
	layer.Backward(dY)
}

func TestDenseInputGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewDense(rng, 3, 2, ReLU)
	x := FromSlice(1, 3, []float64{0.3, -0.7, 1.2})
	loss := func() float64 {
		y := layer.Forward(x)
		var s float64
		for _, v := range y.Data {
			s += v * v
		}
		return s
	}
	const eps = 1e-6
	numeric := make([]float64, 3)
	for j := range x.Data {
		orig := x.Data[j]
		x.Data[j] = orig + eps
		up := loss()
		x.Data[j] = orig - eps
		down := loss()
		x.Data[j] = orig
		numeric[j] = (up - down) / (2 * eps)
	}
	ZeroGrads(layer.Params())
	y := layer.Forward(x)
	dY := y.Clone()
	for i := range dY.Data {
		dY.Data[i] *= 2
	}
	dX := layer.Backward(dY)
	for j := range numeric {
		if math.Abs(dX.Data[j]-numeric[j]) > 1e-5 {
			t.Fatalf("input grad %d: analytic %v vs numeric %v", j, dX.Data[j], numeric[j])
		}
	}
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mlp := NewMLP(rng, 5, []int{8, 8}, 3, Tanh)
	x := NewMatrix(1, 5)
	x.XavierInit(rng, 5, 3)
	loss := func() float64 {
		y := mlp.Forward(x)
		var s float64
		for i, v := range y.Data {
			s += v * float64(i+1) // asymmetric loss
		}
		return s
	}
	numeric := numericalGrad(mlp.Params(), loss)
	ZeroGrads(mlp.Params())
	y := mlp.Forward(x)
	dY := NewMatrix(y.Rows, y.Cols)
	for i := range dY.Data {
		dY.Data[i] = float64(i + 1)
	}
	mlp.Backward(dY, 5)
	assertGradsClose(t, mlp.Params(), numeric, 1e-5)
}

func TestGCNGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	gcn := NewGCN(rng, 2, 4, 6, 2)
	// Random 5-node graph.
	adj := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if rng.Intn(2) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	sHat := NormalizeAdjacency(adj)
	h := NewMatrix(5, 4)
	h.XavierInit(rng, 4, 2)
	loss := func() float64 {
		y := gcn.Forward(sHat, h)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%3+1)
		}
		return s
	}
	numeric := numericalGrad(gcn.Params(), loss)
	ZeroGrads(gcn.Params())
	y := gcn.Forward(sHat, h)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%3+1)
	}
	gcn.Backward(dY)
	// ReLU kinks make finite differences slightly noisy; modest tolerance.
	assertGradsClose(t, gcn.Params(), numeric, 1e-4)
}

// TestGCNBatchMatchesSingleBitForBit: a batch pass (SetBatch, ForwardBatch,
// BackwardBatch) over several observations reproduces the single-observation
// passes bit for bit — each observation's embedding, and weight gradients
// equal to per-observation Backward calls accumulated in batch order from
// zero. Three layers, so the backward recomputes more than one hidden
// activation from the cached first-layer product. It runs with every task
// that has two parts split with the helper, and with none split, each on
// every kernel tier.
func TestGCNBatchMatchesSingleBitForBit(t *testing.T) {
	tiers := availableTiers(t)
	for _, mode := range splitModes {
		t.Run(mode.name, func(t *testing.T) {
			defer mode.set()()
			onTiers(tiers, func(kernelTier) { checkGCNBatchMatchesSingle(t) })
		})
	}
}

func checkGCNBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n, f, batch = 8, 9, 16
	gcn := NewGCN(rng, 3, f, 7, 2)
	var ops, feats, dYs []*Matrix
	for b := 0; b < batch; b++ {
		adj := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					adj.Set(i, j, 1)
					adj.Set(j, i, 1)
				}
			}
		}
		x := NewMatrix(n, f)
		for i := range x.Data {
			if rng.Intn(3) > 0 { // sparse features, like the encoder's
				x.Data[i] = rng.NormFloat64()
			}
		}
		dY := NewMatrix(n, 2)
		for i := range dY.Data {
			dY.Data[i] = rng.NormFloat64()
		}
		ops, feats, dYs = append(ops, NormalizeAdjacency(adj)), append(feats, x), append(dYs, dY)
	}

	ZeroGrads(gcn.Params())
	var single []float64
	for b := range ops {
		single = append(single, gcn.Forward(ops[b], feats[b]).Data...)
		gcn.Backward(dYs[b])
	}
	want := ExportWeights(gradsOf(gcn.Params()))

	ZeroGrads(gcn.Params())
	gcn.SetBatch(ops, feats)
	out := gcn.ForwardBatch()
	for i, v := range single {
		if out.Data[i] != v {
			t.Fatalf("embedding element %d: batch %v, single %v", i, out.Data[i], v)
		}
	}
	dY := NewMatrix(batch*n, 2)
	for b, d := range dYs {
		copy(dY.Data[b*len(d.Data):], d.Data)
	}
	gcn.BackwardBatch(dY)
	got := ExportWeights(gradsOf(gcn.Params()))
	for p := range want {
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("gradient %d element %d: batch %v, single %v", p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestMLPInputColumnsBitForBit: an input gradient formed for the leading
// columns only is the full gradient's leading columns, bit for bit, and
// the parameter gradients do not depend on how many columns are formed.
func TestMLPInputColumnsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const in, batch = 13, 6
	mlp := NewMLP(rng, in, []int{9, 7}, 3, Tanh)
	x, dY := NewMatrix(batch, in), NewMatrix(batch, 3)
	x.XavierInit(rng, in, 3)
	dY.XavierInit(rng, 3, in)
	backward := func(cols int) ([]float64, [][]float64) {
		ZeroGrads(mlp.Params())
		mlp.Forward(x)
		dX := mlp.Backward(dY, cols)
		if dX.Rows != batch || dX.Cols != cols {
			t.Fatalf("input gradient for %d columns is %dx%d", cols, dX.Rows, dX.Cols)
		}
		return append([]float64(nil), dX.Data...), ExportWeights(gradsOf(mlp.Params()))
	}
	full, wantGrads := backward(in)
	for _, cols := range []int{0, 1, 4, 8, in} {
		dX, grads := backward(cols)
		for r := 0; r < batch; r++ {
			for c := 0; c < cols; c++ {
				if got, want := dX[r*cols+c], full[r*in+c]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cols=%d: dX[%d][%d] = %v, full gradient has %v", cols, r, c, got, want)
				}
			}
		}
		for p := range wantGrads {
			for i := range wantGrads[p] {
				if grads[p][i] != wantGrads[p][i] {
					t.Fatalf("cols=%d: gradient %d element %d: %v, want %v", cols, p, i, grads[p][i], wantGrads[p][i])
				}
			}
		}
	}
}

// TestGCNBackwardBatchWithoutForwardPanics: BackwardBatch reads the
// activations the last ForwardBatch stored, and each forward serves one
// backward. Without a matching forward it would differentiate another
// batch's activations, or none, and silently add a wrong gradient, so it
// must panic and leave the gradients alone: after a SetBatch with no
// forward, on a second call, and after a new SetBatch that follows a
// forward.
func TestGCNBackwardBatchWithoutForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n, f, batch = 5, 3, 4
	gcn := NewGCN(rng, 2, f, 4, 2)
	var ops, feats []*Matrix
	for b := 0; b < batch; b++ {
		adj := NewMatrix(n, n)
		for i := 0; i+1 < n; i++ {
			adj.Set(i, i+1, 1)
			adj.Set(i+1, i, 1)
		}
		x := NewMatrix(n, f)
		x.XavierInit(rng, f, 2)
		ops, feats = append(ops, NormalizeAdjacency(adj)), append(feats, x)
	}
	dY := NewMatrix(batch*n, 2)
	dY.XavierInit(rng, n, 2)

	cases := []struct {
		name  string
		setup func()
	}{
		{"SetBatch without forward", func() { gcn.SetBatch(ops, feats) }},
		{"second backward", func() {
			gcn.SetBatch(ops, feats)
			gcn.ForwardBatch()
			gcn.BackwardBatch(dY)
		}},
		{"SetBatch after forward", func() {
			gcn.SetBatch(ops, feats)
			gcn.ForwardBatch()
			gcn.SetBatch(ops[:2], feats[:2])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ZeroGrads(gcn.Params())
			tc.setup()
			want := ExportWeights(gradsOf(gcn.Params()))
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("BackwardBatch without a matching ForwardBatch did not panic")
				}
				if !strings.Contains(fmt.Sprint(r), "gcn batch backward without a batch forward") {
					t.Fatalf("unhelpful panic: %v", r)
				}
				got := ExportWeights(gradsOf(gcn.Params()))
				for p := range want {
					for i := range want[p] {
						if got[p][i] != want[p][i] {
							t.Fatalf("gradient %d element %d changed: %v, want %v", p, i, got[p][i], want[p][i])
						}
					}
				}
			}()
			gcn.BackwardBatch(dY)
		})
	}
}

// gradsOf views the gradients of ps as parameter values, for snapshotting.
func gradsOf(ps []Param) []Param {
	out := make([]Param, len(ps))
	for i, p := range ps {
		out[i] = Param{Value: p.Grad}
	}
	return out
}

// TestMLPBatchedForwardMatchesSingleBitForBit is the property the planner's
// batched exploration relies on: because every matmul kernel computes output
// rows independently, forwarding a row-stacked batch produces, per row, the
// exact bits of a single-row forward.
func TestMLPBatchedForwardMatchesSingleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mlp := NewMLP(rng, 5, []int{8, 8}, 3, Tanh)
	const batch = 4
	xs := NewMatrix(batch, 5)
	xs.XavierInit(rng, 5, 3)

	// Single-row forwards, copied out of the borrowed scratch.
	single := make([][]float64, batch)
	row := NewMatrix(1, 5)
	for i := 0; i < batch; i++ {
		copy(row.Data, xs.Data[i*5:(i+1)*5])
		single[i] = append([]float64(nil), mlp.Forward(row).Data...)
	}

	batched := mlp.Forward(xs)
	for i := 0; i < batch; i++ {
		for j := 0; j < 3; j++ {
			got := batched.At(i, j)
			want := single[i][j]
			if got != want {
				t.Fatalf("row %d col %d: batched %v != single %v (must be bit-identical)", i, j, got, want)
			}
		}
	}
}

// TestMLPBatchedBackwardMatchesFiniteDifference checks the in-place
// backward pass on a multi-row (batched) input against finite differences.
func TestMLPBatchedBackwardMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mlp := NewMLP(rng, 4, []int{6}, 2, ReLU)
	x := NewMatrix(3, 4)
	x.XavierInit(rng, 4, 2)
	loss := func() float64 {
		y := mlp.Forward(x)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%2+1)
		}
		return s
	}
	numeric := numericalGrad(mlp.Params(), loss)
	ZeroGrads(mlp.Params())
	y := mlp.Forward(x)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%2+1)
	}
	mlp.Backward(dY, 4)
	assertGradsClose(t, mlp.Params(), numeric, 1e-4)
}

// TestScratchReuseIsBitStable verifies that the layer-owned scratch does not
// leak state between calls: repeating the same forward/backward produces
// exactly the same outputs and gradient accumulations.
func TestScratchReuseIsBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gcn := NewGCN(rng, 2, 4, 6, 2)
	adj := NewMatrix(5, 5)
	for i := 0; i < 4; i++ {
		adj.Set(i, i+1, 1)
		adj.Set(i+1, i, 1)
	}
	sHat := NormalizeAdjacency(adj)
	h := NewMatrix(5, 4)
	h.XavierInit(rng, 4, 2)
	dY := NewMatrix(5, 2)
	for i := range dY.Data {
		dY.Data[i] = rng.NormFloat64()
	}

	snap := func() ([]float64, [][]float64) {
		ZeroGrads(gcn.Params())
		y := append([]float64(nil), gcn.Forward(sHat, h).Data...)
		gcn.Backward(dY)
		var gs [][]float64
		for _, p := range gcn.Params() {
			gs = append(gs, append([]float64(nil), p.Grad.Data...))
		}
		return y, gs
	}
	y1, g1 := snap()
	y2, g2 := snap()
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("output %d changed across identical calls: %v vs %v", i, y1[i], y2[i])
		}
	}
	for i := range g1 {
		for j := range g1[i] {
			if g1[i][j] != g2[i][j] {
				t.Fatalf("grad %d/%d changed across identical calls: %v vs %v", i, j, g1[i][j], g2[i][j])
			}
		}
	}
}

func TestGCNZeroLayersIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gcn := NewGCN(rng, 0, 4, 6, 2)
	if gcn.NumLayers() != 0 {
		t.Fatal("expected 0 layers")
	}
	if gcn.OutFeatures(4) != 4 {
		t.Fatal("identity GCN must preserve feature dim")
	}
	h := FromSlice(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	sHat := NormalizeAdjacency(NewMatrix(2, 2))
	y := gcn.Forward(sHat, h)
	for i := range h.Data {
		if y.Data[i] != h.Data[i] {
			t.Fatal("identity GCN changed features")
		}
	}
	dy := y.Clone()
	dx := gcn.Backward(dy)
	for i := range dy.Data {
		if dx.Data[i] != dy.Data[i] {
			t.Fatal("identity GCN changed gradient")
		}
	}
	if gcn.Params() != nil {
		t.Fatal("identity GCN has no params")
	}
}

func TestNormalizeAdjacency(t *testing.T) {
	// Two connected nodes: A+I = [[1,1],[1,1]], D = diag(2,2),
	// Ŝ = all entries 1/2.
	adj := FromSlice(2, 2, []float64{0, 1, 1, 0})
	s := NormalizeAdjacency(adj)
	for _, v := range s.Data {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("Ŝ = %v, want all 0.5", s.Data)
		}
	}
	// Isolated node: self loop only, Ŝ = 1.
	s = NormalizeAdjacency(NewMatrix(1, 1))
	if s.Data[0] != 1 {
		t.Fatalf("isolated Ŝ = %v, want 1", s.Data[0])
	}
	// Symmetry on a random graph.
	rng := rand.New(rand.NewSource(3))
	adj = NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if rng.Intn(2) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	s = NormalizeAdjacency(adj)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(s.At(i, j)-s.At(j, i)) > 1e-12 {
				t.Fatal("Ŝ not symmetric")
			}
		}
	}
}
