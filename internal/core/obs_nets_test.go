package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/tsn"
)

func TestEncoderDimensions(t *testing.T) {
	prob := tinyProblem(t)
	enc := NewEncoder(prob, 4)
	// |Vc| = 6, |Ves| = 4, K = 4 -> F = 1 + 6 + 4 + 4 = 15.
	if got := enc.FeatureDim(); got != 15 {
		t.Fatalf("FeatureDim = %d, want 15", got)
	}
	// 3 flows × 3 values + 1 global.
	if got := enc.ParamDim(); got != 10 {
		t.Fatalf("ParamDim = %d, want 10", got)
	}
	s := NewTSSDN(prob)
	obs := enc.Encode(s, nil)
	if obs.SHat.Rows != 6 || obs.SHat.Cols != 6 {
		t.Fatalf("SHat %dx%d", obs.SHat.Rows, obs.SHat.Cols)
	}
	if obs.Feat.Rows != 6 || obs.Feat.Cols != 15 {
		t.Fatalf("Feat %dx%d", obs.Feat.Rows, obs.Feat.Cols)
	}
}

func TestEncoderFeatures(t *testing.T) {
	prob := tinyProblem(t)
	enc := NewEncoder(prob, 4)
	s := NewTSSDN(prob)
	if err := s.UpgradeSwitch(4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPath(graph.Path{0, 4, 1}); err != nil {
		t.Fatal(err)
	}
	soag, _ := NewSOAG(prob, 4)
	set := soag.Generate(s, nbf.Failure{}, []tsn.Pair{{Src: 2, Dst: 3}}, rand.New(rand.NewSource(1)))
	obs := enc.Encode(s, set)

	// Switch cost column: switch 4 has degree 2, ASIL-A -> cost 8, scaled.
	if got := obs.Feat.At(4, 0); math.Abs(got-8.0/54.0) > 1e-12 {
		t.Fatalf("switch cost feature = %v", got)
	}
	if obs.Feat.At(0, 0) != 0 {
		t.Fatal("end stations must have zero switch cost")
	}
	// Link cost block: link (0,4) ASIL-A length 1 -> 1, scaled by 1/8.
	if got := obs.Feat.At(0, 1+4); math.Abs(got-1.0/8.0) > 1e-12 {
		t.Fatalf("link cost feature = %v", got)
	}
	if obs.Feat.At(0, 1+5) != 0 {
		t.Fatal("absent link has nonzero cost feature")
	}
	// Flow demand: flow 0 is 0->1; ES columns ordered [0,1,2,3].
	if obs.Feat.At(0, 1+6+1) != 1 {
		t.Fatal("flow demand (src row) missing")
	}
	if obs.Feat.At(1, 1+6+0) != 1 {
		t.Fatal("flow demand (dst row) missing")
	}
	// Dynamic action columns mark traversed vertices for path slots.
	base := 1 + 6 + 4
	foundPathColumn := false
	for k := 0; k < 4; k++ {
		idx := 2 + k
		if set.Actions[idx].Kind != ActionPathAdd {
			continue
		}
		foundPathColumn = true
		for _, v := range set.Actions[idx].Path {
			if obs.Feat.At(v, base+k) != 1 {
				t.Fatalf("action column %d missing vertex %d", k, v)
			}
		}
	}
	if !foundPathColumn {
		t.Fatal("fixture produced no path actions")
	}
}

func TestNetsForwardShapesAndDeterminism(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(3)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTSSDN(prob)
	set := soag.Generate(s, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 1}}, rand.New(rand.NewSource(1)))
	obs := enc.Encode(s, set)

	// ForwardPolicy returns a borrowed scratch slice; copy before the next
	// forward so the determinism comparison is not against an alias.
	logits := append([]float64(nil), nets.ForwardPolicy(obs)...)
	if len(logits) != soag.ActionSpaceSize() {
		t.Fatalf("logits len %d, want %d", len(logits), soag.ActionSpaceSize())
	}
	again := nets.ForwardPolicy(obs)
	for i := range logits {
		if logits[i] != again[i] {
			t.Fatal("policy forward not deterministic")
		}
	}
	v1 := nets.ForwardValue(obs)
	v2 := nets.ForwardValue(obs)
	if v1 != v2 {
		t.Fatal("value forward not deterministic")
	}
}

func TestNetsGradientThroughFullPipeline(t *testing.T) {
	// Finite-difference check of d logits[a] / d params through
	// GCN + concat + actor MLP.
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(5)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTSSDN(prob)
	if err := s.UpgradeSwitch(4); err != nil {
		t.Fatal(err)
	}
	set := soag.Generate(s, nbf.Failure{}, []tsn.Pair{{Src: 0, Dst: 1}}, rand.New(rand.NewSource(1)))
	obs := enc.Encode(s, set)
	const target = 1

	loss := func() float64 { return nets.ForwardPolicy(obs)[target] }

	ps := nets.PolicyParams()
	nn.ZeroGrads(ps)
	nets.LoadBatch([]rl.Observation{obs})
	logits := nets.ForwardPolicyBatch()
	dLogits := nn.NewMatrix(1, logits.Cols)
	dLogits.Data[target] = 1
	nets.BackwardPolicyBatch(dLogits)

	const eps = 1e-6
	for pi, p := range ps {
		for j := 0; j < len(p.Value.Data); j += 7 { // sample every 7th weight
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			up := loss()
			p.Value.Data[j] = orig - eps
			down := loss()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * eps)
			analytic := p.Grad.Data[j]
			if math.Abs(analytic-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("param %d (%s) elem %d: analytic %v numeric %v", pi, p.Name, j, analytic, numeric)
			}
		}
	}

	// Value head gradient check.
	vs := nets.ValueParams()
	nn.ZeroGrads(vs)
	nets.ForwardValueBatch()
	nets.BackwardValueBatch(nn.FromSlice(1, 1, []float64{1}))
	vloss := func() float64 { return nets.ForwardValue(obs) }
	for pi, p := range vs {
		for j := 0; j < len(p.Value.Data); j += 11 {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			up := vloss()
			p.Value.Data[j] = orig - eps
			down := vloss()
			p.Value.Data[j] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(p.Grad.Data[j]-numeric) > 1e-4*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("value param %d elem %d: analytic %v numeric %v", pi, j, p.Grad.Data[j], numeric)
			}
		}
	}
}

func TestNetsSyncFrom(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	a, err := NewNets(rand.New(rand.NewSource(1)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNets(rand.New(rand.NewSource(2)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SyncFrom(a)
	pa, pb := a.AllParams(), b.AllParams()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("SyncFrom did not copy all parameters")
			}
		}
	}
}

func TestNetsGCN0FeedsRawFeatures(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.GCNLayers = 0
	soag, _ := NewSOAG(prob, cfg.K)
	enc := NewEncoder(prob, cfg.K)
	nets, err := NewNets(rand.New(rand.NewSource(1)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTSSDN(prob)
	obs := enc.Encode(s, nil)
	logits := nets.ForwardPolicy(obs)
	if len(logits) != soag.ActionSpaceSize() {
		t.Fatalf("GCN-0 logits len %d", len(logits))
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mods := []func(*Config){
		func(c *Config) { c.GCNLayers = -1 },
		func(c *Config) { c.GCNLayers = 2; c.GCNHidden = 0 },
		func(c *Config) { c.MLPHidden = nil },
		func(c *Config) { c.MLPHidden = []int{0} },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.MaxEpoch = 0 },
		func(c *Config) { c.MaxStep = 0 },
		func(c *Config) { c.RewardScale = 0 },
		func(c *Config) { c.Discount = 0 },
		func(c *Config) { c.GAELambda = 2 },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.ClipRatio = 0 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	// Table II.
	if cfg.GCNLayers != 2 {
		t.Error("GCN layers != 2")
	}
	if len(cfg.MLPHidden) != 2 || cfg.MLPHidden[0] != 256 || cfg.MLPHidden[1] != 256 {
		t.Error("MLP hidden != 256x256")
	}
	if cfg.EmbeddingPerNode != 2 {
		t.Error("graph embedding features != 2×|Vc|")
	}
	if cfg.RewardScale != 1e3 {
		t.Error("reward scaling factor != 10^3")
	}
	if cfg.ActorLR != 3e-4 || cfg.CriticLR != 1e-3 {
		t.Error("learning rates mismatch")
	}
	if cfg.K != 16 || cfg.MaxEpoch != 256 || cfg.MaxStep != 2048 {
		t.Error("K/maxepoch/maxstep mismatch")
	}
	if cfg.ClipRatio != 0.2 || cfg.GAELambda != 0.97 || cfg.Discount != 0.99 {
		t.Error("clip/lambda/discount mismatch")
	}
}
