package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asil"
)

// stripDurations zeroes the wall-clock and cache-warmth fields so epoch
// stats can be compared across runs (a resumed run starts with a cold
// verdict cache, so hit/miss counts legitimately differ).
func stripDurations(es []EpochStats) []EpochStats {
	out := append([]EpochStats(nil), es...)
	for i := range out {
		out[i].Duration = 0
		out[i].ExploreTime = 0
		out[i].UpdateTime = 0
		out[i].PolicyForwardTime = 0
		out[i].PolicyWaitTime = 0
		out[i].AnalysisTime = 0
		out[i].AnalysisCacheHits = 0
		out[i].AnalysisCacheMisses = 0
		// NBF-call counts depend on the analyzer configuration (the
		// verdict cache elides recovery simulations), not the trajectory.
		out[i].NBFCalls = 0
	}
	return out
}

// resilienceConfig is a tiny two-worker training budget for the
// checkpoint/fault tests.
func resilienceConfig() Config {
	cfg := tinyConfig()
	cfg.Workers = 2
	cfg.MaxStep = 24
	cfg.MaxEpoch = 6
	cfg.Seed = 17
	return cfg
}

// TestCheckpointResumeReproducesRun is the core determinism guarantee: a
// run interrupted after 3 epochs and resumed from its checkpoint must
// reproduce the uninterrupted run's epochs 4-6 (and final weights) exactly.
func TestCheckpointResumeReproducesRun(t *testing.T) {
	prob := tinyProblem(t)

	// Uninterrupted reference run: 6 epochs.
	plA, err := NewPlanner(prob, resilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	repA, err := plA.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Epochs) != 6 {
		t.Fatalf("reference run has %d epochs, want 6", len(repA.Epochs))
	}

	// Interrupted run: stop after epoch 3, capturing a checkpoint.
	cfgB := resilienceConfig()
	cfgB.MaxEpoch = 3
	var ck *Checkpoint
	cfgB.CheckpointEvery = 1
	cfgB.CheckpointFunc = func(c *Checkpoint) error { ck = c; return nil }
	plB, err := NewPlanner(prob, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := plB.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Epoch != 3 {
		t.Fatalf("expected a checkpoint at epoch 3, got %+v", ck)
	}
	// The first half must already match the reference run.
	if !reflect.DeepEqual(stripDurations(repB.Epochs), stripDurations(repA.Epochs[:3])) {
		t.Fatalf("interrupted run diverged from reference:\n%+v\nvs\n%+v", repB.Epochs, repA.Epochs[:3])
	}

	// Resumed run: epochs 4-6 from the checkpoint.
	cfgC := resilienceConfig()
	cfgC.Resume = ck
	plC, err := NewPlanner(prob, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := plC.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripDurations(repC.Epochs), stripDurations(repA.Epochs)) {
		t.Fatalf("resumed run diverged from reference:\n%+v\nvs\n%+v", repC.Epochs, repA.Epochs)
	}
	if !reflect.DeepEqual(repC.FinalWeights, repA.FinalWeights) {
		t.Fatal("resumed run's final weights differ from the reference run")
	}
	if (repA.Best == nil) != (repC.Best == nil) {
		t.Fatal("solution presence differs between reference and resumed run")
	}
	if repA.Best != nil && repA.Best.Cost != repC.Best.Cost {
		t.Fatalf("best cost %v (resumed) vs %v (reference)", repC.Best.Cost, repA.Best.Cost)
	}
}

// TestCheckpointFingerprintFormat pins the checkpoint fingerprint of the
// default configuration on the tiny problem. Resume compares it as a
// string, so any change to its terms or formatting orphans every saved
// checkpoint: a change that makes this test fail needs a migration, not a
// new expected value.
func TestCheckpointFingerprintFormat(t *testing.T) {
	pl, err := NewPlanner(tinyProblem(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const want = "nptsn-ckpt|prob:v=6,e=9,f=3,r=1e-06,esd=2,esl=4,flr=false|" +
		"cfg:gcn=2/32/2,gat=false,mlp=[256 256],k=16,steps=2048,scale=1000,clip=0.2," +
		"alr=0.0003,clr=0.001,lam=0.97,gamma=0.99,pi=80,vi=80,kl=0.01,workers=1,seed=1," +
		"nomask=false,bonus=0,perflow=false,exh=false,retries=3"
	if got := pl.fingerprint(); got != want {
		t.Fatalf("checkpoint fingerprint changed:\n got  %s\n want %s", got, want)
	}
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	prob := tinyProblem(t)
	cfg := resilienceConfig()
	cfg.MaxEpoch = 2
	var ck *Checkpoint
	cfg.CheckpointEvery = 1
	cfg.CheckpointFunc = func(c *Checkpoint) error { ck = c; return nil }
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint captured")
	}

	// Different seed ⇒ different trajectory ⇒ fingerprint mismatch.
	bad := resilienceConfig()
	bad.Seed = 99
	bad.Resume = ck
	pl2, err := NewPlanner(prob, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl2.Plan(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched fingerprint accepted: %v", err)
	}

	// A checkpoint at or past the horizon has nothing left to train.
	short := resilienceConfig()
	short.MaxEpoch = ck.Epoch
	short.Resume = ck
	pl3, err := NewPlanner(prob, short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl3.Plan(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("checkpoint at the horizon accepted: %v", err)
	}
}

func TestWorkerPanicIsolation(t *testing.T) {
	prob := tinyProblem(t)
	cfg := resilienceConfig()
	cfg.MaxEpoch = 3
	cfg.ExploreHook = func(_ context.Context, epoch, worker int) {
		if epoch == 1 && worker == 1 {
			panic("injected fault")
		}
	}
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("run did not complete: %d epochs", len(rep.Epochs))
	}
	e1 := rep.Epochs[0]
	if len(e1.Panics) != 1 || !strings.Contains(e1.Panics[0], "injected fault") {
		t.Fatalf("epoch 1 panics = %v, want the injected fault", e1.Panics)
	}
	// The survivor re-collected the quarantined worker's quota, so the epoch
	// still trained on a full batch.
	if e1.Trajectories == 0 {
		t.Fatal("no trajectories survived the panic epoch")
	}
	for _, e := range rep.Epochs[1:] {
		if len(e.Panics) != 0 {
			t.Fatalf("epoch %d has stale panics: %v", e.Epoch, e.Panics)
		}
		if e.Trajectories == 0 {
			t.Fatalf("epoch %d collected no data after re-arming", e.Epoch)
		}
	}
}

func TestAllWorkersPanicFailsRun(t *testing.T) {
	prob := tinyProblem(t)
	cfg := resilienceConfig()
	cfg.ExploreHook = func(_ context.Context, _, worker int) { panic(fmt.Sprintf("fault %d", worker)) }
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err == nil || !strings.Contains(err.Error(), "all 2 workers panicked") {
		t.Fatalf("all-panicked run did not fail usefully: %v", err)
	}
}

func TestPlanCancellationCheckpointsAndReturns(t *testing.T) {
	prob := tinyProblem(t)
	cfg := resilienceConfig()
	var written []*Checkpoint
	cfg.CheckpointEvery = 5 // periodic schedule never fires in 2 epochs
	cfg.CheckpointFunc = func(c *Checkpoint) error { written = append(written, c); return nil }
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl.afterEpoch = func(epoch int) {
		if epoch == 2 {
			cancel()
		}
	}
	rep, err := pl.PlanContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("cancelled run kept %d epochs, want the 2 completed ones", len(rep.Epochs))
	}
	// The shutdown path must persist the last completed epoch even though
	// the periodic schedule never fired.
	if len(written) != 1 || written[0].Epoch != 2 {
		t.Fatalf("shutdown checkpoint = %+v, want exactly one at epoch 2", written)
	}
}

func TestPreCancelledContextReturnsImmediately(t *testing.T) {
	prob := tinyProblem(t)
	pl, err := NewPlanner(prob, resilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := pl.PlanContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || len(rep.Epochs) != 0 {
		t.Fatalf("pre-cancelled run trained anyway: %+v", rep)
	}
}

func TestConfigValidateResilienceKnobs(t *testing.T) {
	base := resilienceConfig()
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"workers exceed steps", func(c *Config) { c.Workers = c.MaxStep + 1 }},
		{"negative divergence retries", func(c *Config) { c.DivergenceRetries = -1 }},
		{"negative checkpoint interval", func(c *Config) { c.CheckpointEvery = -1 }},
		{"checkpoint func without interval", func(c *Config) {
			c.CheckpointEvery = 0
			c.CheckpointFunc = func(*Checkpoint) error { return nil }
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// TestEnvStateRoundTrip snapshots a mid-construction environment, imports
// it into a fresh one and checks both step identically afterwards.
func TestEnvStateRoundTrip(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	env, err := NewEnvWithCache(prob, cfg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Take a few random valid actions to leave the empty start state.
	for i := 0; i < 3; i++ {
		mask := env.Mask()
		act := -1
		for a, ok := range mask {
			if ok {
				act = a
				break
			}
		}
		if act == -1 {
			break
		}
		if _, _, err := env.Step(act); err != nil {
			t.Fatal(err)
		}
	}
	st := env.ExportState()

	clone, err := NewEnvWithCache(prob, cfg, 999, nil) // different seed: state import overrides it
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.ImportState(st, env.Best()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone.ExportState(), st) {
		t.Fatalf("state round-trip mismatch:\n%+v\nvs\n%+v", clone.ExportState(), st)
	}
	// Both must now expose identical masks and evolve identically.
	if !reflect.DeepEqual(env.Mask(), clone.Mask()) {
		t.Fatal("masks differ after state import")
	}
	mask := env.Mask()
	for a, ok := range mask {
		if !ok {
			continue
		}
		r1, o1, err1 := env.Step(a)
		r2, o2, err2 := clone.Step(a)
		if r1 != r2 || o1 != o2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("step diverged after import: (%v,%v,%v) vs (%v,%v,%v)", r1, o1, err1, r2, o2, err2)
		}
		break
	}
}

func TestEnvImportStateRejectsGarbage(t *testing.T) {
	prob := tinyProblem(t)
	env, err := NewEnvWithCache(prob, tinyConfig(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := env.ExportState()
	st.Switches = map[int]asil.Level{0: asil.LevelA} // vertex 0 is an end station
	if err := env.ImportState(st, nil); err == nil {
		t.Fatal("end station accepted as a switch")
	}
}
