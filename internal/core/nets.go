package core

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rl"
)

// graphTrunk abstracts the shared graph encoder: the GCN of Fig. 3 or the
// GAT alternative discussed (and rejected for scalability) in §IV-C.
// Forward evaluates one observation (exploration); the batch methods serve
// the PPO update.
type graphTrunk interface {
	Forward(op, h *nn.Matrix) *nn.Matrix
	SetBatch(ops, feats []*nn.Matrix)
	ForwardBatch() *nn.Matrix
	BackwardBatch(dY *nn.Matrix)
	Params() []nn.Param
	OutFeatures(in int) int
	NumLayers() int
}

var (
	_ graphTrunk = (*nn.GCN)(nil)
	_ graphTrunk = (*nn.GAT)(nil)
)

// Nets is the neural-network architecture of Fig. 3: a graph trunk (GCN by
// default) shared by an actor MLP (logits over the dynamic action space)
// and a critic MLP (scalar value), with the flow/network parameter vector
// concatenated onto the flattened graph embedding.
//
// Forward passes write into network-owned scratch buffers, so steady-state
// evaluation allocates nothing. ForwardPolicy's returned slice is borrowed
// scratch, valid until the next forward call on the same Nets. The
// rl.ActorCritic methods evaluate and train on a whole update batch at
// once (LoadBatch and the Batch forwards/backwards).
type Nets struct {
	gcn    graphTrunk
	useGAT bool
	actor  *nn.MLP
	critic *nn.MLP

	numVertices int
	featDim     int
	embedCols   int // per-node embedding width after the GCN
	actionSpace int

	// cached parameter lists (built once; callers must not mutate)
	policyParams []nn.Param
	valueParams  []nn.Param
	allParams    []nn.Param

	// scratch
	xRow   *nn.Matrix // 1×mlpIn MLP input for single-observation forwards
	batchX *nn.Matrix // B×mlpIn MLP input for batched forwards

	// update batch (LoadBatch), sized on the first update and reused
	ops, feats []*nn.Matrix // per-observation trunk inputs
	updX       nn.Matrix    // B×mlpIn MLP input; the parameter columns are set once
	dEmb       nn.Matrix    // B·n×embedCols embedding gradient
}

var _ rl.ActorCritic = (*Nets)(nil)

// NewNets builds the networks for the given problem geometry, action-space
// size and config. NPTSN passes the SOAG's action-space size; the NeuroPlan
// baseline passes its static action count.
func NewNets(rng *rand.Rand, enc *Encoder, actionSpace int, cfg Config) (*Nets, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if actionSpace <= 0 {
		return nil, fmt.Errorf("core: action space must be positive, got %d", actionSpace)
	}
	n := enc.prob.NumVertices()
	featDim := enc.FeatureDim()
	var trunk graphTrunk
	if cfg.UseGAT {
		trunk = nn.NewGAT(rng, cfg.GCNLayers, featDim, cfg.GCNHidden, cfg.EmbeddingPerNode)
	} else {
		trunk = nn.NewGCN(rng, cfg.GCNLayers, featDim, cfg.GCNHidden, cfg.EmbeddingPerNode)
	}
	embedCols := trunk.OutFeatures(featDim)
	mlpIn := n*embedCols + enc.ParamDim()
	nt := &Nets{
		gcn:         trunk,
		useGAT:      cfg.UseGAT,
		actor:       nn.NewMLP(rng, mlpIn, cfg.MLPHidden, actionSpace, nn.Tanh),
		critic:      nn.NewMLP(rng, mlpIn, cfg.MLPHidden, 1, nn.Tanh),
		numVertices: n,
		featDim:     featDim,
		embedCols:   embedCols,
		actionSpace: actionSpace,
		xRow:        nn.NewMatrix(1, mlpIn),
		batchX:      new(nn.Matrix),
	}
	// Parameter lists are fixed for the network's lifetime; caching them
	// keeps the per-iteration ZeroGrads/ClipGrads/Step calls allocation-
	// free. Exact capacities so appends by callers reallocate.
	pp := append(trunk.Params(), nt.actor.Params()...)
	vp := append(trunk.Params(), nt.critic.Params()...)
	ap := append(append(trunk.Params(), nt.actor.Params()...), nt.critic.Params()...)
	nt.policyParams = pp[:len(pp):len(pp)]
	nt.valueParams = vp[:len(vp):len(vp)]
	nt.allParams = ap[:len(ap):len(ap)]
	return nt, nil
}

// operator selects the trunk's propagation input for an observation.
func (nt *Nets) operator(o *Obs) *nn.Matrix {
	if nt.useGAT {
		return o.Mask
	}
	return o.SHat
}

// asObs unwraps an rl observation.
func asObs(obs rl.Observation) *Obs {
	o, ok := obs.(*Obs)
	if !ok {
		panic(fmt.Sprintf("core: unexpected observation type %T", obs))
	}
	return o
}

// embed runs the graph trunk and assembles the MLP input into xRow.
func (nt *Nets) embed(obs *Obs) *nn.Matrix {
	emb := nt.gcn.Forward(nt.operator(obs), obs.Feat)
	embLen := nt.numVertices * nt.embedCols
	copy(nt.xRow.Data[:embLen], emb.Data)
	copy(nt.xRow.Data[embLen:], obs.Params.Data)
	return nt.xRow
}

// ForwardPolicy computes the raw (unmasked) action logits of one
// observation. The returned slice is borrowed network scratch: valid until
// the next forward call, never to be modified or retained by the caller.
func (nt *Nets) ForwardPolicy(obs rl.Observation) []float64 {
	return nt.actor.Forward(nt.embed(asObs(obs))).Data
}

// ForwardValue computes the critic's value estimate of one observation.
func (nt *Nets) ForwardValue(obs rl.Observation) float64 {
	return nt.critic.Forward(nt.embed(asObs(obs))).Data[0]
}

// LoadBatch implements rl.ActorCritic: it hands the observations to the
// trunk, which computes their constant first-layer products once, and
// writes each observation's parameter vector into its MLP input row once.
func (nt *Nets) LoadBatch(obs []rl.Observation) {
	clear(nt.ops)
	clear(nt.feats)
	nt.ops, nt.feats = nt.ops[:0], nt.feats[:0]
	if len(obs) == 0 {
		nt.gcn.SetBatch(nil, nil)
		return
	}
	embLen := nt.numVertices * nt.embedCols
	mlpIn := nt.xRow.Cols
	nt.updX.EnsureShape(len(obs), mlpIn)
	for i, ob := range obs {
		o := asObs(ob)
		nt.ops = append(nt.ops, nt.operator(o))
		nt.feats = append(nt.feats, o.Feat)
		copy(nt.updX.Data[i*mlpIn+embLen:(i+1)*mlpIn], o.Params.Data)
	}
	nt.gcn.SetBatch(nt.ops, nt.feats)
}

// batchInput runs the trunk over the loaded batch and fills the embedding
// columns of the MLP input.
func (nt *Nets) batchInput() *nn.Matrix {
	emb := nt.gcn.ForwardBatch()
	embLen := nt.numVertices * nt.embedCols
	mlpIn := nt.xRow.Cols
	for i := 0; i < nt.updX.Rows; i++ {
		copy(nt.updX.Data[i*mlpIn:i*mlpIn+embLen], emb.Data[i*embLen:(i+1)*embLen])
	}
	return &nt.updX
}

// backThroughTrunk backpropagates the embedding columns of the MLP input
// gradient through the trunk (the parameter columns are constants).
func (nt *Nets) backThroughTrunk(dIn *nn.Matrix) {
	if nt.gcn.NumLayers() == 0 {
		return
	}
	embLen := nt.numVertices * nt.embedCols
	nt.dEmb.EnsureShape(dIn.Rows*nt.numVertices, nt.embedCols)
	for i := 0; i < dIn.Rows; i++ {
		copy(nt.dEmb.Data[i*embLen:(i+1)*embLen], dIn.Data[i*dIn.Cols:i*dIn.Cols+embLen])
	}
	nt.gcn.BackwardBatch(&nt.dEmb)
}

// ForwardPolicyBatch implements rl.ActorCritic: B×ActionSpace() logits,
// borrowed until the next forward.
func (nt *Nets) ForwardPolicyBatch() *nn.Matrix { return nt.actor.Forward(nt.batchInput()) }

// BackwardPolicyBatch implements rl.ActorCritic.
func (nt *Nets) BackwardPolicyBatch(dLogits *nn.Matrix) {
	nt.backThroughTrunk(nt.actor.Backward(dLogits))
}

// PolicyParams implements rl.ActorCritic: GCN trunk + actor head. The
// returned list is cached; callers must treat it as read-only.
func (nt *Nets) PolicyParams() []nn.Param { return nt.policyParams }

// ForwardValueBatch implements rl.ActorCritic: B×1 values, borrowed until
// the next forward.
func (nt *Nets) ForwardValueBatch() *nn.Matrix { return nt.critic.Forward(nt.batchInput()) }

// BackwardValueBatch implements rl.ActorCritic.
func (nt *Nets) BackwardValueBatch(dValues *nn.Matrix) {
	nt.backThroughTrunk(nt.critic.Backward(dValues))
}

// ValueParams implements rl.ActorCritic: GCN trunk + critic head (cached,
// read-only).
func (nt *Nets) ValueParams() []nn.Param { return nt.valueParams }

// ActionSpace returns the actor's output dimension.
func (nt *Nets) ActionSpace() int { return nt.actionSpace }

// ForwardPolicyValueBatch evaluates both heads for a row-stacked batch of
// observations in one call: the trunk runs per observation (the
// block-diagonal Ŝ of the batch factorizes into independent blocks), the
// embeddings are stacked into one B×mlpIn matrix, and each MLP runs a
// single batched matmul chain over it. Because every matmul kernel
// computes output rows independently, row i of the batch is bit-identical
// to a single-observation forward of obs[i] — the property the batched
// exploration path relies on for reproducibility, asserted by the
// differential tests.
//
// logits[i] must be a caller-owned slice of length ActionSpace(); values
// must have length len(obs). This is an inference-only path; the PPO
// update evaluates its batch through LoadBatch.
func (nt *Nets) ForwardPolicyValueBatch(obs []*Obs, logits [][]float64, values []float64) {
	b := len(obs)
	if b == 0 {
		return
	}
	if len(logits) != b || len(values) != b {
		panic(fmt.Sprintf("core: batch of %d obs with %d logit / %d value slots", b, len(logits), len(values)))
	}
	embLen := nt.numVertices * nt.embedCols
	mlpIn := embLen + len(obs[0].Params.Data)
	nt.batchX.EnsureShape(b, mlpIn)
	for i, o := range obs {
		emb := nt.gcn.Forward(nt.operator(o), o.Feat)
		row := nt.batchX.Data[i*mlpIn : (i+1)*mlpIn]
		copy(row[:embLen], emb.Data)
		copy(row[embLen:], o.Params.Data)
	}
	out := nt.actor.Forward(nt.batchX)
	for i := range obs {
		if len(logits[i]) != nt.actionSpace {
			panic(fmt.Sprintf("core: logits[%d] has %d slots, action space is %d", i, len(logits[i]), nt.actionSpace))
		}
		copy(logits[i], out.Data[i*nt.actionSpace:(i+1)*nt.actionSpace])
	}
	vals := nt.critic.Forward(nt.batchX)
	for i := range obs {
		values[i] = vals.Data[i]
	}
}

// AllParams lists every parameter exactly once (GCN, actor, critic), used
// for replica synchronization. The returned list is cached; read-only.
func (nt *Nets) AllParams() []nn.Param { return nt.allParams }

// SyncFrom copies parameter values from src (replica synchronization after
// a global update, §IV-C).
func (nt *Nets) SyncFrom(src *Nets) {
	nn.CopyParams(nt.AllParams(), src.AllParams())
}

// ExportWeights snapshots all trainable parameters for persistence or warm
// starting a later run (Adam moments are not included).
func (nt *Nets) ExportWeights() [][]float64 {
	return nn.ExportWeights(nt.AllParams())
}

// ImportWeights restores a snapshot taken from an identically configured
// network (same problem geometry, action space and Config sizes).
func (nt *Nets) ImportWeights(w [][]float64) error {
	return nn.ImportWeights(nt.AllParams(), w)
}
