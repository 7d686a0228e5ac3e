package nn_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/raceflag"
	"repro/internal/rl"
	"repro/internal/scenarios"
)

// TestSplitMatchesSerialBitForBit holds the two-core products to the
// serial ones on the networks the planner trains. For each of
// TestPPOUpdateGolden's three cases (Table II GCN, GAT, GCN-0) it builds
// the seeded ORION buffer and runs three PPO updates, hashing every
// update's statistics and the final weights, once with every task that
// has two parts split with the helper and once with none split; the
// hashes must agree. In the split run it also checks that the batched
// policy/value forward of the buffer's first observations reproduces
// their single forwards.
func TestSplitMatchesSerialBitForBit(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("six Table II-sized updates on the Go loops take minutes under -race; TestSplitProductsBitForBit and TestConcurrentPPOUpdatesMatchAlone run there")
	}
	tableII := core.DefaultConfig()
	tableII.Seed = 5

	gat := core.DefaultConfig()
	gat.UseGAT = true
	gat.GCNHidden = 8
	gat.MLPHidden = []int{32, 32}
	gat.Seed = 6

	gcn0 := core.DefaultConfig()
	gcn0.GCNLayers = 0
	gcn0.MLPHidden = []int{32}
	gcn0.Seed = 7

	cases := []struct {
		name    string
		cfg     core.Config
		actorLR float64
	}{
		{"gcn-tableII", tableII, 1e-4},
		{"gat", gat, 1e-4},
		{"gcn0", gcn0, 1e-3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restore := nn.SplitEveryTask()
			split := updateHash(t, tc.cfg, tc.actorLR, true)
			restore()
			defer nn.SplitNoTask()()
			if serial := updateHash(t, tc.cfg, tc.actorLR, false); split != serial {
				t.Fatalf("update hash %s with every task split, %s with none", split, serial)
			}
		})
	}
}

// updateHash builds the networks and a 61-step buffer for cfg on ORION
// with 20 seeded flows, as TestPPOUpdateGolden does, runs three PPO
// updates and hashes their statistics and the final weights. With
// checkBatch it first holds the batched forward to single forwards.
func updateHash(t *testing.T, cfg core.Config, actorLR float64, checkBatch bool) string {
	t.Helper()
	s, err := scenarios.ORION()
	if err != nil {
		t.Fatal(err)
	}
	prob := s.Problem(s.RandomFlows(20, cfg.Seed), &nbf.StatelessRecovery{}, 1e-6)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	nets, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnvWithCache(prob, cfg, cfg.Seed+2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sc := nn.NewScratch(nets.ActionSpace())
	buf := rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	var obs []*core.Obs
	for i := 0; i < 61; i++ {
		o := env.Observation()
		obs = append(obs, o)
		mask := append([]bool(nil), env.Mask()...)
		masked := nn.MaskLogitsInto(sc.Masked, nets.ForwardPolicy(o), mask)
		action := nn.SampleCategorical(rng, nn.SoftmaxInto(sc.Probs, masked))
		logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[action]
		value := nets.ForwardValue(o)
		reward, outcome, err := env.Step(action)
		if err != nil {
			t.Fatal(err)
		}
		buf.Store(rl.Step{Obs: o, Action: action, Mask: mask, LogP: logp, Value: value, Reward: reward})
		if outcome == core.OutcomeSolved || outcome == core.OutcomeDeadEnd {
			buf.FinishPath(0)
		}
	}
	buf.FinishPath(nets.ForwardValue(env.Observation()))
	if checkBatch {
		checkBatchForward(t, nets, obs[:5])
	}

	ppo, err := rl.NewPPO(rl.PPOConfig{
		ClipRatio: 0.2, ActorLR: actorLR, CriticLR: 1e-3,
		TrainPiIters: 80, TrainVIters: 6, TargetKL: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for u := 0; u < 3; u++ {
		st, err := ppo.Update(nets, buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{st.PolicyLoss, st.ValueLoss, st.ApproxKL, st.Entropy, st.ClipFraction, float64(st.PiIters)} {
			put(v)
		}
	}
	for _, w := range nets.ExportWeights() {
		for _, v := range w {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkBatchForward holds ForwardPolicyValueBatch over obs to single
// ForwardPolicy and ForwardValue calls, bit for bit.
func checkBatchForward(t *testing.T, nets *core.Nets, obs []*core.Obs) {
	t.Helper()
	logits := make([][]float64, len(obs))
	for i := range logits {
		logits[i] = make([]float64, nets.ActionSpace())
	}
	values := make([]float64, len(obs))
	nets.ForwardPolicyValueBatch(obs, logits, values)
	for i, o := range obs {
		if v := nets.ForwardValue(o); values[i] != v {
			t.Fatalf("obs %d: batched value %v, single %v", i, values[i], v)
		}
		for j, v := range nets.ForwardPolicy(o) {
			if logits[i][j] != v {
				t.Fatalf("obs %d logit %d: batched %v, single %v", i, j, logits[i][j], v)
			}
		}
	}
}
