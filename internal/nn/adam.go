package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2014) over a parameter
// list, the gradient method used for all updates in the paper (§IV-C).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
	m    []*Matrix
	v    []*Matrix
}

// NewAdam constructs an optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8) and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update using the accumulated gradients of ps. The
// parameter list must be the same (same order and shapes) on every call:
// the moment estimates are indexed positionally, so a silently reordered
// or reshaped list would pair each parameter with another parameter's
// momenta and corrupt the update. Step panics with a clear message when
// the list changes shape between calls (the same guard Import applies to
// restored state).
func (a *Adam) Step(ps []Param) {
	if a.m == nil {
		a.m = make([]*Matrix, len(ps))
		a.v = make([]*Matrix, len(ps))
		for i, p := range ps {
			a.m[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
			a.v[i] = NewMatrix(p.Value.Rows, p.Value.Cols)
		}
	} else {
		if len(ps) != len(a.m) {
			panic(fmt.Sprintf("nn: adam stepped with %d params, first call had %d", len(ps), len(a.m)))
		}
		for i, p := range ps {
			if p.Value.Rows != a.m[i].Rows || p.Value.Cols != a.m[i].Cols {
				panic(fmt.Sprintf("nn: adam param %d is %dx%d, first call had %dx%d",
					i, p.Value.Rows, p.Value.Cols, a.m[i].Rows, a.m[i].Cols))
			}
		}
	}
	a.step++
	c := adamCoef{
		b1: a.Beta1, c1: 1 - a.Beta1, b2: a.Beta2, c2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.step)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.step)),
		lr:  a.LR, eps: a.Epsilon,
	}
	j := adamJob{ps: ps, m: a.m, v: a.v, c: c}
	total := 0
	for _, p := range ps {
		total += len(p.Value.Data)
	}
	if h := claim(total*adamCost, total); h != nil {
		h.args.adam = j
		h.run(&h.args.adam, j.cut(total/2), total)
		return
	}
	j.run(0, 0, total)
}

// adamCost weighs one element's Adam step in multiply-adds of the block
// kernel, for the split decision only. The step is bound by a square root
// and two divisions: BenchmarkNNKernelsTableII's adam/256x256 runs
// 0.28 elements/ns (~3.5 ns each) on a 2-vCPU AVX-512 Xeon, where the
// block kernel's forward/64x256x256 does ~14 multiply-adds/ns, so an
// element costs ~50. The weight stays at 8, which underrates it: a
// Table II step (~200k parameters) splits at either weight, and 8 keeps
// the step serial for nets of up to 32,768 parameters.
const adamCost = 8

// adamJob is an Adam step over a range of the parameters' elements,
// numbered through the list in order.
type adamJob struct {
	ps   []Param
	m, v []*Matrix
	c    adamCoef
}

func (aj *adamJob) run(_, lo, hi int) {
	off := 0
	for i, p := range aj.ps {
		n := len(p.Value.Data)
		if s, e := max(lo-off, 0), min(hi-off, n); s < e {
			adamUpdate(p.Value.Data[s:e], p.Grad.Data[s:e], aj.m[i].Data[s:e], aj.v[i].Data[s:e], &aj.c)
		}
		off += n
	}
}

// cut returns the last element at or below at that begins a group of
// four within its parameter, so every element takes the kernel, vector or
// Go tail, that it takes in an uncut step.
func (aj *adamJob) cut(at int) int {
	off := 0
	for _, p := range aj.ps {
		n := len(p.Value.Data)
		if at < off+n {
			return off + (at-off)&^3
		}
		off += n
	}
	return off
}

// adamCoef holds one step's Adam coefficients, in the layout the assembly
// reads: β1, 1−β1, β2, 1−β2, the two bias corrections, the learning rate
// and ε.
type adamCoef struct{ b1, c1, b2, c2, bc1, bc2, lr, eps float64 }

// adamGo applies one Adam step to the parameters p with gradients g and
// moments m, v (all of p's length).
func adamGo(p, g, m, v []float64, c *adamCoef) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for j, gj := range g {
		m[j] = c.b1*m[j] + c.c1*gj
		v[j] = c.b2*v[j] + c.c2*gj*gj
		mHat := m[j] / c.bc1
		vHat := v[j] / c.bc2
		p[j] -= c.lr * mHat / (math.Sqrt(vHat) + c.eps)
	}
}

// Steps returns how many updates have been applied.
func (a *Adam) Steps() int { return a.step }

// AdamState is a serializable snapshot of the optimizer's moment estimates,
// used by training checkpoints: resuming with restored moments reproduces
// the uninterrupted update sequence exactly.
type AdamState struct {
	Step int         `json:"step"`
	M    [][]float64 `json:"m,omitempty"`
	V    [][]float64 `json:"v,omitempty"`
}

// Export deep-copies the optimizer state. An optimizer that has never
// stepped exports an empty state.
func (a *Adam) Export() AdamState {
	st := AdamState{Step: a.step}
	for i := range a.m {
		st.M = append(st.M, append([]float64(nil), a.m[i].Data...))
		st.V = append(st.V, append([]float64(nil), a.v[i].Data...))
	}
	return st
}

// Import restores a snapshot taken with Export. ps must be the parameter
// list the optimizer steps over — it supplies the moment tensor shapes.
func (a *Adam) Import(ps []Param, st AdamState) error {
	if len(st.M) == 0 && len(st.V) == 0 {
		a.step = st.Step
		a.m, a.v = nil, nil
		return nil
	}
	if len(st.M) != len(ps) || len(st.V) != len(ps) {
		return fmt.Errorf("nn: adam state has %d/%d moment tensors, network has %d params",
			len(st.M), len(st.V), len(ps))
	}
	m := make([]*Matrix, len(ps))
	v := make([]*Matrix, len(ps))
	for i, p := range ps {
		if len(st.M[i]) != len(p.Value.Data) || len(st.V[i]) != len(p.Value.Data) {
			return fmt.Errorf("nn: adam moment tensor %d has %d/%d values, param expects %d",
				i, len(st.M[i]), len(st.V[i]), len(p.Value.Data))
		}
		m[i] = FromSlice(p.Value.Rows, p.Value.Cols, append([]float64(nil), st.M[i]...))
		v[i] = FromSlice(p.Value.Rows, p.Value.Cols, append([]float64(nil), st.V[i]...))
	}
	a.step = st.Step
	a.m, a.v = m, v
	return nil
}
