package core

import (
	"testing"

	"repro/internal/asil"
	"repro/internal/tsn"
)

// greedySolve drives the environment with a deterministic hand policy:
// first bring both switches to ASIL-C, then always take the first
// selectable path action (falling back to a switch upgrade). It must reach
// a valid solution on the tiny problem.
func greedySolve(t *testing.T, env *Env, maxSteps int) *Solution {
	t.Helper()
	upgrades := map[int]int{} // switch slot -> upgrades applied
	for step := 0; step < maxSteps; step++ {
		set := env.Actions()
		choice := -1
		// Prefer upgrading switches below ASIL-C.
		for i := 0; i < 2; i++ {
			if set.Mask[i] && upgrades[i] < 3 {
				choice = i
				break
			}
		}
		if choice == -1 {
			for i := 2; i < set.Size(); i++ {
				if set.Mask[i] {
					choice = i
					break
				}
			}
		}
		if choice == -1 { // nothing else: upgrade any selectable switch
			for i := 0; i < set.Size(); i++ {
				if set.Mask[i] {
					choice = i
					break
				}
			}
		}
		if choice == -1 {
			t.Fatal("no selectable action")
		}
		if choice < 2 {
			upgrades[choice]++
		}
		_, outcome, err := env.Step(choice)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if outcome == OutcomeSolved {
			return env.Best()
		}
		if outcome == OutcomeDeadEnd {
			upgrades = map[int]int{}
		}
	}
	t.Fatalf("no solution within %d steps", maxSteps)
	return nil
}

func TestEnvGreedyConstructionReachesSolution(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	env, err := NewEnvWithCache(prob, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol := greedySolve(t, env, 200)
	if sol == nil || sol.Cost <= 0 {
		t.Fatalf("solution = %+v", sol)
	}
	// The solution must actually satisfy the analyzer.
	if err := VerifySolution(prob, sol); err != nil {
		t.Fatalf("recorded solution invalid: %v", err)
	}
	// The environment must have reset after recording.
	if env.State().Topo.NumEdges() != 0 {
		t.Fatal("state not reset after solution")
	}
	if env.Solutions < 1 {
		t.Fatal("solution counter not incremented")
	}
}

func TestEnvRewardIsNegativeCostDelta(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	env, err := NewEnvWithCache(prob, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First action: add switch 4 (slot 0) -> cost 8 -> reward -8/scale.
	r, outcome, err := env.Step(0)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeContinue {
		t.Fatalf("outcome = %v", outcome)
	}
	want := -8.0 / cfg.RewardScale
	if r != want {
		t.Fatalf("reward = %v, want %v", r, want)
	}
}

func TestEnvStepErrors(t *testing.T) {
	prob := tinyProblem(t)
	env, err := NewEnvWithCache(prob, tinyConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.Step(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := env.Step(999); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Selecting an empty (masked) path slot without ablation is an error.
	if _, _, err := env.Step(5); err == nil {
		t.Error("empty action slot accepted")
	}
}

func TestEnvSolvedTrivialProblem(t *testing.T) {
	prob := tinyProblem(t)
	prob.Flows = nil
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvWithCache(prob, tinyConfig(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Solved() {
		t.Fatal("flowless problem should be solved by the empty network")
	}
}

func TestPlannerSmokeAndDeterminism(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Epochs) != cfg.MaxEpoch {
		t.Fatalf("epochs = %d, want %d", len(r1.Epochs), cfg.MaxEpoch)
	}
	pl2, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pl2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Epochs {
		if r1.Epochs[i].Reward != r2.Epochs[i].Reward {
			t.Fatalf("epoch %d rewards differ: %v vs %v", i, r1.Epochs[i].Reward, r2.Epochs[i].Reward)
		}
	}
	if (r1.Best == nil) != (r2.Best == nil) {
		t.Fatal("best-solution presence differs between identical runs")
	}
	if r1.Best != nil && r1.Best.Cost != r2.Best.Cost {
		t.Fatalf("best costs differ: %v vs %v", r1.Best.Cost, r2.Best.Cost)
	}
}

func TestPlannerFindsSolutionOnTinyProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.MaxEpoch = 4
	cfg.MaxStep = 120
	cfg.Seed = 3
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !report.GuaranteeMet() {
		t.Fatal("planner found no valid solution on the tiny problem")
	}
	if err := VerifySolution(prob, report.Best); err != nil {
		t.Fatalf("best solution invalid: %v", err)
	}
	if report.TotalNBFCalls == 0 {
		t.Fatal("NBF call counter empty")
	}
}

func TestPlannerParallelWorkersMatchProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("training run")
	}
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.Workers = 2
	cfg.MaxStep = 48
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Epochs) != cfg.MaxEpoch {
		t.Fatalf("epochs = %d", len(report.Epochs))
	}
	// Each epoch gathers steps across both workers.
	if report.Epochs[0].Trajectories < 2 {
		t.Fatalf("expected >= 2 trajectories (one partial per worker), got %d", report.Epochs[0].Trajectories)
	}
}

func TestPlannerFlowlessProblemTrivial(t *testing.T) {
	prob := tinyProblem(t)
	prob.Flows = nil
	pl, err := NewPlanner(prob, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == nil || report.Best.Cost != 0 {
		t.Fatalf("trivial solution = %+v", report.Best)
	}
}

func TestNewPlannerValidation(t *testing.T) {
	prob := tinyProblem(t)
	bad := tinyConfig()
	bad.K = 0
	if _, err := NewPlanner(prob, bad); err == nil {
		t.Error("invalid config accepted")
	}
	brokenProb := tinyProblem(t)
	brokenProb.Library = nil
	if _, err := NewPlanner(brokenProb, tinyConfig()); err == nil {
		t.Error("invalid problem accepted")
	}
}

var (
	_ = asil.LevelA
	_ = tsn.Pair{}
)
