package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/asil"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nbf"
)

// TestMediumBudgetTrend reruns fixed ORION 10-flow cases at increasing
// training budgets to document the cost-vs-budget trend quoted in
// EXPERIMENTS.md. It takes ~25 minutes, so it only runs when explicitly
// requested via NPTSN_MEDIUM=1.
func TestMediumBudgetTrend(t *testing.T) {
	if os.Getenv("NPTSN_MEDIUM") == "" {
		t.Skip("set NPTSN_MEDIUM=1 to run the budget-trend experiment (~25 min)")
	}
	scen := mustORION(t)
	budgets := []struct {
		name   string
		epochs int
		steps  int
	}{
		{"small-12x256", 12, 256},
		{"medium-32x384", 32, 384},
	}
	for _, b := range budgets {
		cfg := core.DefaultConfig()
		cfg.GCNHidden = 16
		cfg.MLPHidden = []int{64, 64}
		cfg.TrainPiIters = 20
		cfg.TrainVIters = 20
		cfg.MaxEpoch = b.epochs
		cfg.MaxStep = b.steps
		cfg.Seed = 1
		var costs []float64
		dShare := 0.0
		dTotal := 0.0
		for c := 0; c < 3; c++ {
			flows := scen.RandomFlows(10, int64(1+10*1000+c))
			prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)
			res, err := eval.RunCase(prob, nil, cfg, []eval.Approach{eval.ApproachNPTSN})
			if err != nil {
				t.Fatal(err)
			}
			r := res[eval.ApproachNPTSN]
			costs = append(costs, r.Cost)
			for lvl, n := range r.SwitchLevels {
				dTotal += float64(n)
				if lvl == asil.LevelD {
					dShare += float64(n)
				}
			}
		}
		mean := (costs[0] + costs[1] + costs[2]) / 3
		fmt.Printf("RESULT %s: mean cost %.1f (cases %v), ASIL-D share %.1f%%\n",
			b.name, mean, costs, dShare/dTotal*100)
	}
}
