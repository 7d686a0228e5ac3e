package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rl"
)

// NeuroPlan is the RL network-planning baseline of [16], modified as in
// §VI-A: a static action space of individual link additions plus switch
// ASIL assignment, the same GCN+PPO stack and the same reward/environment
// as NPTSN, but without the SOAG's failure-targeted path actions or search
// space pruning. Its long, link-by-link decision trajectories are the
// paper's explanation for its degraded guarantee rate and higher cost.
type NeuroPlan struct {
	cfg core.Config
}

// NewNeuroPlan builds the baseline with the given (NPTSN-compatible)
// hyperparameters; K is ignored (the action space is static).
func NewNeuroPlan(cfg core.Config) (*NeuroPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NeuroPlan{cfg: cfg}, nil
}

// npEnv is NeuroPlan's environment: same state, analyzer and reward shape
// as core.Env, with a static action space.
type npEnv struct {
	prob     *core.Problem
	analyzer *failure.Analyzer
	enc      *core.Encoder
	scale    float64

	links    []graph.Edge // static link-action list (canonical order)
	switches []int

	state *core.TSSDN
	ok    bool
	cost  float64
	best  *core.Solution
	steps int
}

func newNPEnv(prob *core.Problem, cfg core.Config) (*npEnv, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	e := &npEnv{
		prob: prob,
		analyzer: &failure.Analyzer{
			Lib: prob.Library, NBF: prob.NBF, Net: prob.Net, R: prob.ReliabilityGoal,
			Workers: cfg.AnalyzerWorkers,
			Cache:   cfg.VerdictCache(),
		},
		// K=1 keeps one (always empty) action column; the encoder needs a
		// positive width but NeuroPlan never populates path actions.
		enc:      core.NewEncoder(prob, 1),
		scale:    cfg.RewardScale,
		links:    prob.Connections.Edges(),
		switches: prob.Switches(),
		state:    core.NewTSSDN(prob),
	}
	if err := e.analyze(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *npEnv) analyze() error {
	res, err := e.analyzer.Analyze(e.state.Topo, e.state.Assign, e.prob.Flows)
	if err != nil {
		return err
	}
	e.ok = res.OK
	return nil
}

// actionCount is |Ec| + |V^c_sw|: one action per optional link plus one
// ASIL-assignment action per optional switch.
func (e *npEnv) actionCount() int { return len(e.links) + len(e.switches) }

// mask computes validity of every static action in the current state.
func (e *npEnv) mask() []bool {
	m := make([]bool, e.actionCount())
	for i, l := range e.links {
		m[i] = e.linkValid(l)
	}
	for j, sw := range e.switches {
		m[len(e.links)+j] = e.state.Assign.SwitchLevel(sw) != asil.LevelD
	}
	return m
}

// linkValid reports whether adding link l is currently possible: not
// already present, switch endpoints already assigned, and degree limits
// respected.
func (e *npEnv) linkValid(l graph.Edge) bool {
	if e.state.Topo.HasEdge(l.U, l.V) {
		return false
	}
	for _, v := range []int{l.U, l.V} {
		switch e.prob.Connections.Kind(v) {
		case graph.KindSwitch:
			if !e.state.HasSwitch(v) {
				return false
			}
			if e.state.Topo.Degree(v)+1 > e.prob.Library.MaxSwitchDegree() {
				return false
			}
		case graph.KindEndStation:
			if e.state.Topo.Degree(v)+1 > e.prob.MaxESDegree {
				return false
			}
		}
	}
	return true
}

func (e *npEnv) observation() *core.Obs { return e.enc.Encode(e.state, nil) }

func (e *npEnv) reset() error {
	e.state.Reset()
	e.cost = 0
	return e.analyze()
}

// step mirrors core.Env.Step for the static action space.
func (e *npEnv) step(idx int) (float64, core.StepOutcome, error) {
	if idx < 0 || idx >= e.actionCount() {
		return 0, 0, fmt.Errorf("neuroplan: action %d out of range", idx)
	}
	e.steps++
	var err error
	if idx < len(e.links) {
		l := e.links[idx]
		err = e.state.AddPath(graph.Path{l.U, l.V})
	} else {
		err = e.state.UpgradeSwitch(e.switches[idx-len(e.links)])
	}
	if err != nil {
		return 0, 0, fmt.Errorf("neuroplan: unmasked action failed: %w", err)
	}
	newCost, err := e.state.Cost()
	if err != nil {
		return 0, 0, err
	}
	reward := (e.cost - newCost) / e.scale
	e.cost = newCost
	if err := e.analyze(); err != nil {
		return 0, 0, err
	}
	if e.ok {
		if e.best == nil || newCost < e.best.Cost {
			e.best = &core.Solution{
				Topology:   e.state.Topo.Clone(),
				Assignment: e.state.Assign.Clone(),
				Cost:       newCost,
			}
		}
		if err := e.reset(); err != nil {
			return 0, 0, err
		}
		return reward, core.OutcomeSolved, nil
	}
	if allFalse(e.mask()) {
		if err := e.reset(); err != nil {
			return 0, 0, err
		}
		return reward - 1, core.OutcomeDeadEnd, nil
	}
	return reward, core.OutcomeContinue, nil
}

func allFalse(mask []bool) bool {
	for _, m := range mask {
		if m {
			return false
		}
	}
	return true
}

// Plan trains the NeuroPlan agent and returns the best solution found plus
// per-epoch statistics (single exploration worker).
func (n *NeuroPlan) Plan(prob *core.Problem) (*Result, *core.Report, error) {
	env, err := newNPEnv(prob, n.cfg)
	if err != nil {
		return nil, nil, err
	}
	if env.ok {
		sol := &core.Solution{Topology: env.state.Topo.Clone(), Assignment: env.state.Assign.Clone()}
		return &Result{Solution: sol, GuaranteeMet: true}, &core.Report{Best: sol}, nil
	}
	rng := rand.New(rand.NewSource(n.cfg.Seed))
	nets, err := core.NewNets(rng, env.enc, env.actionCount(), n.cfg)
	if err != nil {
		return nil, nil, err
	}
	ppo, err := rl.NewPPO(n.cfg.PPOConfig())
	if err != nil {
		return nil, nil, err
	}

	report := &core.Report{}
	for epoch := 1; epoch <= n.cfg.MaxEpoch; epoch++ {
		buf := rl.NewBuffer(n.cfg.Discount, n.cfg.GAELambda)
		es := core.EpochStats{Epoch: epoch}
		for j := 0; j < n.cfg.MaxStep; j++ {
			obs := env.observation()
			mask := env.mask()
			if allFalse(mask) {
				return nil, nil, fmt.Errorf("neuroplan: no valid actions from the start state")
			}
			logits := nets.ForwardPolicy(obs)
			masked := nn.MaskLogits(logits, mask)
			action := nn.SampleCategorical(rng, nn.Softmax(masked))
			logp := nn.LogSoftmax(masked)[action]
			value := nets.ForwardValue(obs)
			reward, outcome, err := env.step(action)
			if err != nil {
				return nil, nil, err
			}
			buf.Store(rl.Step{Obs: obs, Action: action, Mask: mask, LogP: logp, Value: value, Reward: reward})
			switch outcome {
			case core.OutcomeSolved:
				es.Trajectories++
				es.Solutions++
				buf.FinishPath(0)
			case core.OutcomeDeadEnd:
				es.Trajectories++
				es.DeadEnds++
				buf.FinishPath(0)
			}
		}
		// A non-empty trailing partial path counts as a trajectory; an
		// epoch that ended exactly on a path boundary adds nothing.
		before := buf.Paths()
		buf.FinishPath(nets.ForwardValue(env.observation()))
		if buf.Paths() > before {
			es.Trajectories++
		}
		es.Reward = buf.EpochReward()

		stats, err := ppo.Update(nets, buf)
		if err != nil {
			return nil, nil, err
		}
		es.PolicyLoss, es.ValueLoss, es.ApproxKL = stats.PolicyLoss, stats.ValueLoss, stats.ApproxKL
		if env.best != nil {
			if report.Best == nil || env.best.Cost < report.Best.Cost {
				b := env.best.Clone()
				b.FoundAtEpoch = epoch
				report.Best = b
			}
			es.BestCost = report.Best.Cost
		}
		report.Epochs = append(report.Epochs, es)
	}

	res := &Result{GuaranteeMet: report.Best != nil}
	if report.Best != nil {
		res.Solution = report.Best
	} else {
		res.Reason = "no valid topology discovered within the training budget"
	}
	return res, report, nil
}
