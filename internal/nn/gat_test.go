package nn

import (
	"math"
	"math/rand"
	"testing"
)

func gatFixture(t testing.TB) (*GAT, *Matrix, *Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	gat := NewGAT(rng, 2, 4, 6, 2)
	adj := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if rng.Intn(2) == 0 {
				adj.Set(i, j, 1)
				adj.Set(j, i, 1)
			}
		}
	}
	h := NewMatrix(5, 4)
	h.XavierInit(rng, 4, 2)
	return gat, adj, h
}

// TestGATOperatorPatternBitForBit pins why the GAT can take the GCN's
// operator: it reads only the operator's nonzero pattern, and Ŝ is nonzero
// exactly where A + I is. Forward output, input gradient and weight
// gradients on Ŝ must equal those on the 0/1 A + I bit for bit.
func TestGATOperatorPatternBitForBit(t *testing.T) {
	gat, adj, h := gatFixture(t)
	selfLoops := adj.Clone()
	for i := 0; i < selfLoops.Rows; i++ {
		selfLoops.Set(i, i, 1)
	}
	run := func(op *Matrix) [][]float64 {
		ZeroGrads(gat.Params())
		y := gat.Forward(op, h)
		out := [][]float64{append([]float64(nil), y.Data...)}
		dY := NewMatrix(y.Rows, y.Cols)
		for i := range dY.Data {
			dY.Data[i] = float64(i%5) - 1.5
		}
		out = append(out, append([]float64(nil), gat.Backward(dY).Data...))
		for _, p := range gat.Params() {
			out = append(out, append([]float64(nil), p.Grad.Data...))
		}
		return out
	}
	want := run(selfLoops)
	got := run(NormalizeAdjacency(adj))
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("output %d element %d: %v on Ŝ, %v on A + I", k, i, got[k][i], want[k][i])
			}
		}
	}
}

func TestGATForwardShapesAndAttentionRows(t *testing.T) {
	gat, adj, h := gatFixture(t)
	op := NormalizeAdjacency(adj)
	y := gat.Forward(op, h)
	if y.Rows != 5 || y.Cols != 2 {
		t.Fatalf("output %dx%d, want 5x2", y.Rows, y.Cols)
	}
	// Each layer's attention rows must sum to 1 over the operator's nonzeros.
	for _, layer := range gat.layers {
		for i := 0; i < 5; i++ {
			var sum float64
			for j := 0; j < 5; j++ {
				a := layer.alpha.At(i, j)
				if op.At(i, j) == 0 && a != 0 {
					t.Fatalf("attention leaked outside the operator's pattern at (%d,%d)", i, j)
				}
				if a < 0 {
					t.Fatalf("negative attention at (%d,%d)", i, j)
				}
				sum += a
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row %d sums to %v", i, sum)
			}
		}
	}
}

func TestGATGradientMatchesFiniteDifference(t *testing.T) {
	gat, adj, h := gatFixture(t)
	op := NormalizeAdjacency(adj)
	loss := func() float64 {
		y := gat.Forward(op, h)
		var s float64
		for i, v := range y.Data {
			s += v * v * float64(i%3+1)
		}
		return s
	}
	numeric := numericalGrad(gat.Params(), loss)
	ZeroGrads(gat.Params())
	y := gat.Forward(op, h)
	dY := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		dY.Data[i] = 2 * v * float64(i%3+1)
	}
	gat.Backward(dY)
	// ReLU/LeakyReLU kinks: modest tolerance.
	assertGradsClose(t, gat.Params(), numeric, 1e-4)
}

func TestGATInputGradientMatchesFiniteDifference(t *testing.T) {
	gat, adj, h := gatFixture(t)
	op := NormalizeAdjacency(adj)
	loss := func() float64 {
		y := gat.Forward(op, h)
		var s float64
		for i, v := range y.Data {
			s += v * float64(i+1)
		}
		return s
	}
	ZeroGrads(gat.Params())
	y := gat.Forward(op, h)
	dY := NewMatrix(y.Rows, y.Cols)
	for i := range dY.Data {
		dY.Data[i] = float64(i + 1)
	}
	dH := gat.Backward(dY)
	const eps = 1e-6
	for j := range h.Data {
		orig := h.Data[j]
		h.Data[j] = orig + eps
		up := loss()
		h.Data[j] = orig - eps
		down := loss()
		h.Data[j] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(dH.Data[j]-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("dH[%d] = %v, numeric %v", j, dH.Data[j], numeric)
		}
	}
}

func TestGATZeroLayersIdentity(t *testing.T) {
	gat := NewGAT(rand.New(rand.NewSource(1)), 0, 3, 4, 2)
	if gat.NumLayers() != 0 || gat.OutFeatures(3) != 3 {
		t.Fatal("zero-layer GAT should be identity-shaped")
	}
	h := FromSlice(1, 3, []float64{1, 2, 3})
	y := gat.Forward(NormalizeAdjacency(NewMatrix(1, 1)), h)
	for i := range h.Data {
		if y.Data[i] != h.Data[i] {
			t.Fatal("identity violated")
		}
	}
	if gat.Params() != nil {
		t.Fatal("identity GAT has no params")
	}
}

func TestGATDeterministic(t *testing.T) {
	gat, adj, h := gatFixture(t)
	op := NormalizeAdjacency(adj)
	y1 := gat.Forward(op, h).Clone()
	y2 := gat.Forward(op, h)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("GAT forward not deterministic")
		}
	}
}
