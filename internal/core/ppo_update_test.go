package core_test

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

// orionUpdateFixture builds networks for the ORION scenario (20 seeded TT
// flows) and fills a buffer with `steps` on-policy environment steps drawn
// from them, closing paths exactly as the planner's workers do.
func orionUpdateFixture(tb testing.TB, cfg core.Config, steps int) (*core.Nets, *rl.Buffer) {
	tb.Helper()
	s, err := scenarios.ORION()
	if err != nil {
		tb.Fatal(err)
	}
	prob := s.Problem(s.RandomFlows(20, cfg.Seed), &nbf.StatelessRecovery{}, 1e-6)
	if err := prob.Validate(); err != nil {
		tb.Fatal(err)
	}
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		tb.Fatal(err)
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	nets, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := core.NewEnv(prob, cfg, cfg.Seed+2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	sc := nn.NewScratch(nets.ActionSpace())
	buf := rl.NewBuffer(cfg.Discount, cfg.GAELambda)
	for i := 0; i < steps; i++ {
		obs := env.Observation()
		mask := append([]bool(nil), env.Mask()...)
		masked := nn.MaskLogitsInto(sc.Masked, nets.ForwardPolicy(obs), mask)
		action := nn.SampleCategorical(rng, nn.SoftmaxInto(sc.Probs, masked))
		logp := nn.LogSoftmaxInto(sc.LogProbs, masked)[action]
		value := nets.ForwardValue(obs)
		reward, outcome, err := env.Step(action)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Store(rl.Step{Obs: obs, Action: action, Mask: mask, LogP: logp, Value: value, Reward: reward})
		if outcome == core.OutcomeSolved || outcome == core.OutcomeDeadEnd {
			buf.FinishPath(0)
		}
	}
	buf.FinishPath(nets.ForwardValue(env.Observation()))
	return nets, buf
}

// TestPPOUpdateGolden pins the PPO update bit for bit: three updates on one
// seeded ORION buffer, hashed over every network weight and the Float64bits
// of every UpdateStats field after each update. The buffer's log-probs go
// stale from the second update on, so the updates see clipped rows and stop
// early on KL (asserted below, so the fixture cannot silently lose that
// coverage). The constants were recorded with the per-sample update loop
// that preceded the batched one; any change to the floating-point operation
// sequence of the update — kernel order, gradient grouping, skipped rows —
// changes the hash.
func TestPPOUpdateGolden(t *testing.T) {
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
		want    string
	}{
		{"gcn-tableII", tableII, 1e-4, "b56c65ea89e6cdcc3a869aed1f18c79bb91013fa116e8be6d16e799123c3145c"},
		{"gat", gat, 1e-4, "4a5de3fdb165a12168bfe55f0a2878ee6d8526e7bb6ecf2241e8f398622c3dc5"},
		{"gcn0", gcn0, 1e-3, "e3af0e6aef6c061903c249a45b040f513d39bb73bc02893fc8eb3ff888793cb1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nets, buf := orionUpdateFixture(t, tc.cfg, 61)
			ppo, err := rl.NewPPO(rl.PPOConfig{
				ClipRatio: 0.2, ActorLR: tc.actorLR, CriticLR: 1e-3,
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
			var clipped, stopped bool
			for u := 0; u < 3; u++ {
				st, err := ppo.Update(nets, buf)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("update %d: %+v", u, st)
				for _, v := range []float64{st.PolicyLoss, st.ValueLoss, st.ApproxKL, st.Entropy, st.ClipFraction, float64(st.PiIters)} {
					put(v)
				}
				if st.EarlyStopped {
					put(1)
				} else {
					put(0)
				}
				clipped = clipped || st.ClipFraction > 0
				stopped = stopped || st.EarlyStopped
			}
			for _, w := range nets.ExportWeights() {
				for _, v := range w {
					put(v)
				}
			}
			if !clipped || !stopped {
				t.Fatalf("fixture lost coverage: clipped=%v early-stopped=%v", clipped, stopped)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Fatalf("update hash %s, want %s", got, tc.want)
			}
		})
	}
}

// tableIIUpdate returns Table II networks, a seeded 64-step ORION buffer
// and a Table II PPO updater.
func tableIIUpdate(tb testing.TB) (*core.Nets, *rl.Buffer, *rl.PPO) {
	tb.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	nets, buf := orionUpdateFixture(tb, cfg, 64)
	ppo, err := rl.NewPPO(rl.PPOConfig{
		ClipRatio: cfg.ClipRatio, ActorLR: cfg.ActorLR, CriticLR: cfg.CriticLR,
		TrainPiIters: cfg.TrainPiIters, TrainVIters: cfg.TrainVIters, TargetKL: cfg.TargetKL,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return nets, buf, ppo
}

// BenchmarkPPOUpdateORION times one Table II PPO update (80 policy and 80
// value iterations, KL early stop) on a fixed, seeded 64-step ORION
// buffer: the layer that dominates a training epoch.
func BenchmarkPPOUpdateORION(b *testing.B) {
	nets, buf, ppo := tableIIUpdate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppo.Update(nets, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPPOUpdateAllocFree guards the update's steady state: its batch
// buffers are sized by the first Update on a batch shape and reused, so a
// later Update on the same shape allocates nothing.
func TestPPOUpdateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	nets, buf := orionUpdateFixture(t, cfg, 64)
	ppo, err := rl.NewPPO(rl.PPOConfig{
		ClipRatio: cfg.ClipRatio, ActorLR: cfg.ActorLR, CriticLR: cfg.CriticLR,
		TrainPiIters: 3, TrainVIters: 3, TargetKL: cfg.TargetKL,
	})
	if err != nil {
		t.Fatal(err)
	}
	update := func() {
		if _, err := ppo.Update(nets, buf); err != nil {
			t.Fatal(err)
		}
	}
	update() // size the batch buffers
	if n := testing.AllocsPerRun(5, update); n != 0 {
		t.Errorf("PPO update: %v allocs/op in steady state, want 0", n)
	}
}
