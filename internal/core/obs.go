package core

import (
	"repro/internal/nn"
)

// Obs is the observation of the RL agent: the normalized adjacency of the
// current topology plus the four feature categories of §IV-C (switch cost,
// link cost, flow demand, dynamic actions) and the non-graph parameter
// vector (flow periods, frame sizes, base period).
type Obs struct {
	// SHat is the normalized propagation operator Ŝ of the current
	// topology (|Vc|×|Vc|), the graph trunk's input: the GCN propagates
	// over it and the GAT attends over its nonzero pattern, A + I.
	SHat *nn.Matrix
	// Feat is the node feature matrix, |Vc| × (1 + |Vc| + |Ves| + K).
	Feat *nn.Matrix
	// Params is the 1×P flow/network parameter row vector.
	Params *nn.Matrix
}

// Encoder builds observations for a problem instance. Feature widths are
// fixed per problem so the neural networks have constant shapes.
type Encoder struct {
	prob    *Problem
	k       int
	perFlow bool

	esIndex map[int]int // end-station vertex -> column in flow features
	// flowFeat is the static flow feature block: by default the
	// |Vc| × |Ves| demanded-path-count matrix of §IV-C; with the per-flow
	// alternative it is the |Vc| × |FS| matrix marking each flow's source
	// (1) and destinations (2).
	flowFeat *nn.Matrix
	params   *nn.Matrix
}

// NewEncoder precomputes the static encoding parts using the default
// (path-count) flow features.
func NewEncoder(prob *Problem, k int) *Encoder {
	return NewEncoderWithOptions(prob, k, false)
}

// NewEncoderWithOptions allows selecting the §IV-C per-flow alternative
// encoding.
func NewEncoderWithOptions(prob *Problem, k int, perFlow bool) *Encoder {
	n := prob.NumVertices()
	es := prob.EndStations()
	e := &Encoder{
		prob:    prob,
		k:       k,
		perFlow: perFlow,
		esIndex: make(map[int]int, len(es)),
	}
	for i, v := range es {
		e.esIndex[v] = i
	}
	if perFlow {
		// Alternative: one column per flow (source = 1, destination = 2,
		// other vertices zero). Keeps per-flow identity but scales with
		// |FS| rather than |Ves|.
		e.flowFeat = nn.NewMatrix(n, len(prob.Flows))
		for col, f := range prob.Flows {
			e.flowFeat.Set(f.Src, col, 1)
			for _, d := range f.Dsts {
				e.flowFeat.Set(d, col, 2)
			}
		}
	} else {
		// Default: |Vc| × |Ves| matrix of demanded path counts. The
		// element is the number of flow paths required between u ∈ Vc and
		// the end station v; zero when u is a switch (§IV-C).
		e.flowFeat = nn.NewMatrix(n, len(es))
		for _, f := range prob.Flows {
			for _, d := range f.Dsts {
				if col, ok := e.esIndex[d]; ok {
					e.flowFeat.Set(f.Src, col, e.flowFeat.At(f.Src, col)+1)
				}
				if col, ok := e.esIndex[f.Src]; ok {
					e.flowFeat.Set(d, col, e.flowFeat.At(d, col)+1)
				}
			}
		}
	}
	// Parameter vector: per flow (period/B, deadline/period,
	// frameSize/1500) plus the slot count, normalized to O(1) magnitudes.
	p := make([]float64, 0, 3*len(prob.Flows)+1)
	for _, f := range prob.Flows {
		p = append(p,
			float64(f.Period)/float64(prob.Net.BasePeriod),
			float64(f.Deadline)/float64(f.Period),
			float64(f.FrameSize)/1500.0,
		)
	}
	p = append(p, float64(prob.Net.SlotsPerBase)/32.0)
	e.params = nn.FromSlice(1, len(p), p)
	return e
}

// FeatureDim returns the per-node feature width: 1 + |Vc| + |Ves| + K by
// default, or 1 + |Vc| + |FS| + K with the per-flow encoding.
func (e *Encoder) FeatureDim() int {
	return 1 + e.prob.NumVertices() + e.flowFeat.Cols + e.k
}

// ParamDim returns the parameter vector length.
func (e *Encoder) ParamDim() int { return e.params.Cols }

// Encode builds the observation for the current state and action set.
func (e *Encoder) Encode(state *TSSDN, actions *ActionSet) *Obs {
	n := e.prob.NumVertices()
	adj := nn.FromSlice(n, n, state.Topo.AdjacencyMatrix())
	feat := nn.NewMatrix(n, e.FeatureDim())

	// Column 0: switch cost csw(deg, ASIL); end stations cost zero.
	const costScale = 1.0 / 54.0 // largest library switch cost
	for _, sw := range e.prob.Switches() {
		lvl := state.Assign.SwitchLevel(sw)
		if !lvl.Valid() {
			continue
		}
		c, err := e.prob.Library.SwitchCost(lvl, state.Topo.Degree(sw))
		if err != nil {
			continue // degree beyond library: leave zero; masks prevent this
		}
		feat.Set(sw, 0, c*costScale)
	}

	// Columns 1..n: link cost matrix clk(ASIL_uv, len).
	const linkScale = 1.0 / 8.0
	for _, edge := range state.Topo.Edges() {
		lvl := state.Assign.LinkLevel(edge.U, edge.V)
		if !lvl.Valid() {
			continue
		}
		c, err := e.prob.Library.LinkCost(lvl, edge.Length)
		if err != nil {
			continue
		}
		feat.Set(edge.U, 1+edge.V, c*linkScale)
		feat.Set(edge.V, 1+edge.U, c*linkScale)
	}

	// Flow feature block (static).
	base := 1 + n
	for r := 0; r < n; r++ {
		for c := 0; c < e.flowFeat.Cols; c++ {
			feat.Set(r, base+c, e.flowFeat.At(r, c))
		}
	}

	// Columns for dynamic actions: vertex-membership of each path slot.
	base += e.flowFeat.Cols
	if actions != nil {
		swCount := len(e.prob.Switches())
		for i := 0; i < e.k; i++ {
			idx := swCount + i
			if idx >= len(actions.Actions) {
				break
			}
			a := actions.Actions[idx]
			if a.Kind != ActionPathAdd {
				continue
			}
			for _, v := range a.Path {
				feat.Set(v, base+i, 1)
			}
		}
	}

	return &Obs{
		SHat:   nn.NormalizeAdjacency(adj),
		Feat:   feat,
		Params: e.params,
	}
}
