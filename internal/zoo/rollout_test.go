package zoo

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
	"repro/internal/serialize"
)

// solutionBytes canonicalizes a solution for bit-identity comparison.
func solutionBytes(t testing.TB, sol *core.Solution) []byte {
	t.Helper()
	if sol == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, serialize.EncodeSolution(sol)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rolloutNets builds the policy network a rollout runs, with weights
// imported.
func rolloutNets(t *testing.T, prob *core.Problem, cfg core.Config, weights [][]float64) *core.Nets {
	t.Helper()
	soag, err := core.NewSOAG(prob, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	enc := core.NewEncoderWithOptions(prob, cfg.K, cfg.PerFlowEncoding)
	nets, err := core.NewNets(rand.New(rand.NewSource(cfg.Seed)), enc, soag.ActionSpaceSize(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nets.ImportWeights(weights); err != nil {
		t.Fatal(err)
	}
	return nets
}

// TestRolloutDeterministicAcrossBatching is the differential check behind
// the rollout's contract: 4 streams stepped in one batched lockstep must
// return the plan and stats of the same 4 streams each run alone, one
// observation per forward.
func TestRolloutDeterministicAcrossBatching(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyCfg()
	weights := trainedWeights(t)
	const streams = rolloutStreams

	sol, stats, err := Rollout(context.Background(), prob, cfg, weights)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("rollout found no plan")
	}

	nets := rolloutNets(t, prob, cfg, weights)
	alone := RolloutStats{Streams: streams}
	var best *core.Solution
	for i := 0; i < streams; i++ {
		env, err := core.NewEnvWithCache(prob, cfg, cfg.Seed+int64(i)*104729+2, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &stream{env: env}
		if err := runStreams(context.Background(), nets, []*stream{s}, cfg.MaxStep); err != nil {
			t.Fatal(err)
		}
		alone.EnvSteps += s.steps
		if b := env.Best(); b != nil {
			alone.Solved++
			if best == nil || b.Cost < best.Cost {
				best = b
			}
		}
	}
	if !bytes.Equal(solutionBytes(t, sol), solutionBytes(t, best)) {
		t.Error("batched plan differs from the streams run alone")
	}
	if stats != alone {
		t.Errorf("batched stats %+v, streams alone %+v", stats, alone)
	}
}

// TestRolloutReproducible re-runs the same rollout end to end: repeated
// invocations must spend exactly the same work.
func TestRolloutReproducible(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyCfg()
	cfg.Seed = 7
	weights := trainedWeights(t)
	_, statsA, err := Rollout(context.Background(), prob, cfg, weights)
	if err != nil {
		t.Fatal(err)
	}
	_, statsB, err := Rollout(context.Background(), prob, cfg, weights)
	if err != nil {
		t.Fatal(err)
	}
	if statsA != statsB {
		t.Fatalf("same seed diverged: %+v vs %+v", statsA, statsB)
	}
}

// TestRolloutRejectsForeignGeometry pins the error path the service's
// fallback chain depends on: weights shaped for another geometry must be
// refused, not silently misapplied.
func TestRolloutRejectsForeignGeometry(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyCfg()
	_, _, err := Rollout(context.Background(), prob, cfg, [][]float64{{1, 2, 3}})
	if err == nil {
		t.Fatal("foreign-geometry weights accepted")
	}
}

// TestGreedyActionAllocFree guards the rollout hot path: action selection
// runs once per environment step per stream and must not allocate.
func TestGreedyActionAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race")
	}
	logits := []float64{0.3, -1.2, 2.5, 0.0, -0.4, 1.1}
	mask := []bool{true, false, true, true, false, true}
	var got int
	if n := testing.AllocsPerRun(100, func() {
		got = greedyAction(logits, mask)
	}); n != 0 {
		t.Errorf("greedyAction: %v allocs/op in steady state, want 0", n)
	}
	if got != 2 {
		t.Fatalf("greedyAction picked %d, want 2", got)
	}
}

func TestGreedyActionRules(t *testing.T) {
	cases := []struct {
		logits []float64
		mask   []bool
		want   int
	}{
		{[]float64{5, 1, 2}, []bool{false, true, true}, 2},    // masked max skipped
		{[]float64{1, 1, 1}, []bool{true, true, true}, 0},     // lowest index wins ties
		{[]float64{3, 9, 4}, []bool{false, false, false}, -1}, // all masked
		{[]float64{-2, -1}, []bool{true, true}, 1},            // negatives compare correctly
	}
	for i, c := range cases {
		if got := greedyAction(c.logits, c.mask); got != c.want {
			t.Errorf("case %d: got %d, want %d", i, got, c.want)
		}
	}
}

// TestRolloutStreamSeedsFollowPlannerSchedule pins the seed schedule to
// the planner's worker-env layout, so a zoo rollout explores the same
// environment sequence a training run with the same seed would: stream 0
// of a rollout at seed 4 must equal one greedy stream in the environment
// the planner's worker 0 gets at seed 4. That environment (seed 6) plans
// differently from its neighbours (seeds 5 and 7), so a shifted schedule
// shows.
func TestRolloutStreamSeedsFollowPlannerSchedule(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyCfg()
	cfg.Seed = 4
	weights := trainedWeights(t)
	nets := rolloutNets(t, prob, cfg, weights)
	streams, err := newStreams(prob, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := runStreams(context.Background(), nets, streams, cfg.MaxStep); err != nil {
		t.Fatal(err)
	}
	solA := streams[0].env.Best()
	if solA == nil {
		t.Fatal("rollout found no plan")
	}
	env, err := core.NewEnvWithCache(prob, cfg, cfg.Seed+2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &stream{env: env}
	if err := runStreams(context.Background(), nets, []*stream{s}, cfg.MaxStep); err != nil {
		t.Fatal(err)
	}
	a, b := solutionBytes(t, solA), solutionBytes(t, env.Best())
	if !bytes.Equal(a, b) {
		t.Fatal("rollout stream 0 and the planner's worker-0 environment produced different plans")
	}
}

func BenchmarkGreedyAction(b *testing.B) {
	logits := make([]float64, 64)
	mask := make([]bool, 64)
	for i := range logits {
		logits[i] = float64((i * 7919) % 97)
		mask[i] = i%3 != 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if greedyAction(logits, mask) < 0 {
			b.Fatal("unexpected all-masked")
		}
	}
}

// Example of the rollout's cost accounting used in docs; keeps the stats
// fields exercised under `go vet`-style example checking.
func ExampleRolloutStats() {
	s := RolloutStats{Streams: 4, Solved: 4, EnvSteps: 44}
	fmt.Printf("%d/%d streams solved in %d env steps\n", s.Solved, s.Streams, s.EnvSteps)
	// Output: 4/4 streams solved in 44 env steps
}
