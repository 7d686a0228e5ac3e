package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Set(1, 2, -2)
	if m.At(0, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 0) != 0 {
		t.Fatal("At/Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone shares storage")
	}
	m.Zero()
	if m.At(0, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatrix(0, 0)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	if c.Rows != 2 || c.Cols != 2 {
		t.Fatalf("shape %dx%d, want 2x2", c.Rows, c.Cols)
	}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulInto = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMulInto(NewMatrix(0, 0), NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTranspose(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	at := make([]float64, len(a))
	transpose(at, a, 2, 3)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i, w := range want {
		if at[i] != w {
			t.Fatalf("transpose = %v, want %v", at, want)
		}
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(50, 50)
	m.XavierInit(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("value %v outside Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 2000 {
		t.Fatal("init looks degenerate")
	}
}

func TestParamHelpers(t *testing.T) {
	ps := []Param{{Value: FromSlice(1, 2, []float64{1, 2}), Grad: FromSlice(1, 2, []float64{3, 4})}}
	ZeroGrads(ps)
	if ps[0].Grad.Data[0] != 0 || ps[0].Grad.Data[1] != 0 {
		t.Fatal("ZeroGrads failed")
	}
	if ps[0].Value.Data[0] != 1 {
		t.Fatal("ZeroGrads touched a value")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||^2 with Adam.
	w := FromSlice(1, 3, []float64{5, -3, 2})
	g := NewMatrix(1, 3)
	target := []float64{1, 2, 3}
	ps := []Param{{Value: w, Grad: g}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		ZeroGrads(ps)
		for j := range target {
			g.Data[j] = 2 * (w.Data[j] - target[j])
		}
		opt.Step(ps)
	}
	for j := range target {
		if math.Abs(w.Data[j]-target[j]) > 1e-3 {
			t.Fatalf("Adam did not converge: w=%v", w.Data)
		}
	}
	if opt.Steps() != 500 {
		t.Fatalf("Steps = %d", opt.Steps())
	}
}
