// ORION: compare all four planners of the paper's performance evaluation
// on one ORION test case (31 end stations, 15 candidate switches, random
// TT flows) — the manually designed Original network with ASIL-D
// components, the TRH FRER heuristic, the NeuroPlan RL baseline, and
// NPTSN.
//
//	go run ./examples/orion
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nbf"
	"repro/internal/scenarios"
)

func main() {
	scen, err := scenarios.ORION()
	if err != nil {
		log.Fatal(err)
	}
	flows := scen.RandomFlows(10, 3)
	prob := scen.Problem(flows, &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)

	// A scaled-down training budget keeps this example interactive; the
	// paper's Table II budget is core.DefaultConfig().
	cfg := core.DefaultConfig()
	cfg.MaxEpoch = 6
	cfg.MaxStep = 128
	cfg.K = 8
	cfg.MLPHidden = []int{64, 64}
	cfg.GCNHidden = 16
	cfg.Seed = 3

	results, err := eval.RunCase(prob, scen.Original, cfg, eval.AllApproaches())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ORION, %d flows, R = 1e-6\n", len(flows))
	fmt.Printf("%-10s %-10s %10s  %s\n", "approach", "guarantee", "cost", "notes")
	for _, ap := range eval.SortedApproaches(results) {
		r := results[ap]
		guarantee := "met"
		if !r.GuaranteeMet {
			guarantee = "NOT met"
		}
		cost := "-"
		if r.Cost > 0 {
			cost = fmt.Sprintf("%.0f", r.Cost)
		}
		fmt.Printf("%-10s %-10s %10s  %s\n", r.Approach, guarantee, cost, r.Reason)
	}

	if nptsn, ok := results[eval.ApproachNPTSN]; ok && nptsn.GuaranteeMet {
		orig := results[eval.ApproachOriginal]
		if orig.Cost > 0 && nptsn.Cost > 0 {
			fmt.Printf("\nNPTSN cost reduction vs Original: %.1fx\n", orig.Cost/nptsn.Cost)
		}
	}
}
