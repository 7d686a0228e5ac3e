// Command nptsn-eval regenerates the tables and figures of the paper's
// evaluation section at a configurable scale. The paper's full budget
// (256 epochs × 2048 steps per test case, 50 ORION cases) runs for many
// hours; -scale micro/small trade budget for turnaround while preserving
// the qualitative shape.
//
//	nptsn-eval -fig 4a -scale small
//	nptsn-eval -fig 5c -scale micro
//	nptsn-eval -fig all -scale micro
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/nbf"
	"repro/internal/obsv"
	"repro/internal/scenarios"
	"repro/internal/serialize"
	"repro/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nptsn-eval:", err)
		os.Exit(1)
	}
}

// scaleConfig returns the RL budget for the named scale.
func scaleConfig(scale string, seed int64) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	switch scale {
	case "paper":
		// Table II as-is.
	case "small":
		cfg.MaxEpoch = 12
		cfg.MaxStep = 256
		cfg.MLPHidden = []int{64, 64}
		cfg.GCNHidden = 16
		cfg.TrainPiIters = 20
		cfg.TrainVIters = 20
	case "micro":
		cfg.MaxEpoch = 6
		cfg.MaxStep = 96
		cfg.MLPHidden = []int{32, 32}
		cfg.GCNHidden = 8
		cfg.K = 8
		cfg.TrainPiIters = 8
		cfg.TrainVIters = 8
	default:
		return cfg, fmt.Errorf("unknown scale %q (want micro, small or paper)", scale)
	}
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nptsn-eval", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "figure to regenerate: 4a, 4b, 4c, 5a, 5b, 5c, warm, zoo or all (zoo needs -zoo)")
		scale     = fs.String("scale", "micro", "training budget: micro, small or paper")
		cases     = fs.Int("cases", 3, "test cases per flow count (paper: 10)")
		flowsCSV  = fs.String("flows", "10,20,30", "comma-separated flow counts (paper: 10,20,30,40,50)")
		seed      = fs.Int64("seed", 1, "base random seed")
		verbose   = fs.Bool("v", false, "per-case progress output")
		csvDir    = fs.String("csv-dir", "", "also write fig4.csv / fig5<x>.csv into this directory")
		doCert    = fs.Bool("certify", false, "independently certify every produced solution and report PASS rates")
		certSamp  = fs.Int("certify-samples", 64, "Monte Carlo trials per certification audit (with -certify)")
		anWorkers = fs.Int("analyzer-workers", 1, "failure-analysis worker goroutines per Analyze call (1 = sequential)")
		anCache   = fs.Int("analyzer-cache", 32768, "failure-analysis verdict cache entries per run (0 = disabled)")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics, /healthz and /debug/pprof on this address (e.g. localhost:9090)")
		eventsPath  = fs.String("events", "", "summarize this training event log (from nptsn -events) and exit")

		warmFamily = fs.String("warm-family", "zonal", "scenario family for -fig warm: "+strings.Join(scenarios.FamilyNames(), ", "))
		warmES     = fs.Int("warm-es", 8, "end stations for -fig warm")
		warmSW     = fs.Int("warm-sw", 4, "switches for -fig warm")
		warmSteps  = fs.Int("warm-steps", 3, "churn-trace steps (re-plans) for -fig warm")

		zooPath   = fs.String("zoo", "", "policy zoo directory for -fig zoo (populate with nptsn-pretrain at the same -scale geometry)")
		zooFamily = fs.String("zoo-family", "mesh", "scenario family for -fig zoo's churn trace")
		zooES     = fs.Int("zoo-es", 4, "end stations for -fig zoo")
		zooSW     = fs.Int("zoo-sw", 4, "switches for -fig zoo")
		zooSteps  = fs.Int("zoo-steps", 3, "churn-trace steps for -fig zoo")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eventsPath != "" {
		// Read-back mode: no training, just a convergence summary of a
		// previously recorded run.
		events, err := obsv.ReadLog(*eventsPath)
		if err != nil {
			return err
		}
		summary, err := eval.SummarizeEvents(events)
		if err != nil {
			return fmt.Errorf("%s: %w", *eventsPath, err)
		}
		fmt.Fprint(out, summary.Render())
		return nil
	}
	cfg, err := scaleConfig(*scale, *seed)
	if err != nil {
		return err
	}
	cfg.AnalyzerWorkers = *anWorkers
	cfg.AnalyzerCacheSize = *anCache
	if *metricsAddr != "" {
		reg := obsv.NewRegistry()
		srv, err := obsv.StartServer(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		// One shared registry: every run of the harness accumulates into
		// the same series (registration is idempotent).
		cfg.Metrics = reg
		fmt.Fprintf(out, "metrics: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	flowCounts, err := parseInts(*flowsCSV)
	if err != nil {
		return err
	}

	wantFig4 := *fig == "all" || strings.HasPrefix(*fig, "4")
	wantWarm := *fig == "all" || *fig == "warm"
	// The zoo measurement needs a pretrained zoo on disk, so "all" only
	// includes it when -zoo is set.
	wantZoo := *fig == "zoo" || (*fig == "all" && *zooPath != "")
	wantFig5 := map[string]bool{
		"5a": *fig == "all" || *fig == "5a",
		"5b": *fig == "all" || *fig == "5b",
		"5c": *fig == "all" || *fig == "5c",
	}

	if wantFig4 {
		orion, err := scenarios.ORION()
		if err != nil {
			return err
		}
		progress := func(string, ...interface{}) {}
		if *verbose {
			progress = func(format string, args ...interface{}) {
				fmt.Fprintf(out, format+"\n", args...)
			}
		}
		res, err := eval.RunFig4(eval.Fig4Options{
			Scenario:       orion,
			FlowCounts:     flowCounts,
			Cases:          *cases,
			Seed:           *seed,
			Cfg:            cfg,
			Progress:       progress,
			Certify:        *doCert,
			CertifyOptions: certify.Options{Samples: *certSamp, Seed: *seed},
		})
		if err != nil {
			return err
		}
		switch *fig {
		case "4a":
			fmt.Fprint(out, res.RenderGuarantee())
		case "4b":
			fmt.Fprint(out, res.RenderCost())
		case "4c":
			fmt.Fprint(out, res.RenderASIL())
		default:
			fmt.Fprint(out, res.RenderGuarantee())
			fmt.Fprintln(out)
			fmt.Fprint(out, res.RenderCost())
			fmt.Fprintln(out)
			fmt.Fprint(out, res.RenderASIL())
			fmt.Fprintln(out)
		}
		if *doCert {
			fmt.Fprint(out, res.RenderCertification())
			fmt.Fprintln(out)
		}
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, "fig4.csv"), res.WriteFig4CSV); err != nil {
				return err
			}
		}
	}

	if wantFig5["5a"] || wantFig5["5b"] || wantFig5["5c"] {
		ads, err := scenarios.ADS()
		if err != nil {
			return err
		}
		prob := ads.Problem(scenarios.ADSFlows(*seed), &nbf.StatelessRecovery{MaxAlternatives: 3}, 1e-6)

		if wantFig5["5a"] {
			variants := make([]eval.SensitivityVariant, 0, 3)
			for _, layers := range []int{0, 2, 4} {
				c := cfg
				c.GCNLayers = layers
				if layers == 0 {
					// Matching §VI-B: GCN-0 is unstable at the default
					// actor learning rate; the paper drops it to 1e-4.
					c.ActorLR = 1e-4
				}
				variants = append(variants, eval.SensitivityVariant{Label: fmt.Sprintf("GCN-%d", layers), Cfg: c})
			}
			res, err := eval.RunSensitivity("Fig 5(a): impact of the number of GCN layers (ADS)", prob, variants)
			if err != nil {
				return err
			}
			fmt.Fprint(out, res.Render())
			fmt.Fprintln(out)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, "fig5a.csv"), res.WriteCurvesCSV); err != nil {
					return err
				}
			}
		}
		if wantFig5["5b"] {
			var variants []eval.SensitivityVariant
			for _, h := range []int{64, 128, 256} {
				c := cfg
				c.MLPHidden = []int{h, h}
				variants = append(variants, eval.SensitivityVariant{Label: fmt.Sprintf("MLP-%dx%d", h, h), Cfg: c})
			}
			res, err := eval.RunSensitivity("Fig 5(b): impact of the MLP hidden layer size (ADS)", prob, variants)
			if err != nil {
				return err
			}
			fmt.Fprint(out, res.Render())
			fmt.Fprintln(out)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, "fig5b.csv"), res.WriteCurvesCSV); err != nil {
					return err
				}
			}
		}
		if wantFig5["5c"] {
			var variants []eval.SensitivityVariant
			for _, k := range []int{8, 16, 32} {
				c := cfg
				c.K = k
				variants = append(variants, eval.SensitivityVariant{Label: fmt.Sprintf("K-%d", k), Cfg: c})
			}
			res, err := eval.RunSensitivity("Fig 5(c): impact of the number of paths K (ADS)", prob, variants)
			if err != nil {
				return err
			}
			fmt.Fprint(out, res.Render())
			fmt.Fprintln(out)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, "fig5c.csv"), res.WriteCurvesCSV); err != nil {
					return err
				}
			}
		}
	}

	if wantWarm {
		s, err := scenarios.Family(*warmFamily, *warmES, *warmSW)
		if err != nil {
			return err
		}
		trace, err := scenarios.Churn(scenarios.ChurnOptions{
			Scenario: s, BaseFlows: 4, Steps: *warmSteps,
			AddsPerStep: 1, RemovesPerStep: 1, Seed: *seed,
		})
		if err != nil {
			return err
		}
		res, err := eval.RunWarmCold(trace, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.Render())
		fmt.Fprintln(out)
	}

	if wantZoo {
		if *zooPath == "" {
			return fmt.Errorf("-fig zoo needs -zoo (populate one with nptsn-pretrain)")
		}
		z, quarantined, err := zoo.Open(*zooPath)
		if err != nil {
			return err
		}
		for _, q := range quarantined {
			fmt.Fprintf(out, "zoo quarantined: %s\n", q)
		}
		s, err := scenarios.Family(*zooFamily, *zooES, *zooSW)
		if err != nil {
			return err
		}
		trace, err := scenarios.Churn(scenarios.ChurnOptions{
			Scenario: s, BaseFlows: 4, Steps: *zooSteps,
			AddsPerStep: 1, RemovesPerStep: 1, Seed: *seed,
		})
		if err != nil {
			return err
		}
		res, err := eval.RunZooChurn(trace, eval.ZooChurnOptions{
			Zoo: z, Cfg: cfg, CertifySamples: *certSamp,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.Render())
		fmt.Fprintln(out)
	}
	return nil
}

// writeCSV streams CSV content through fn into path atomically (temp file
// + rename, Close error checked), so a short write to a full disk is
// reported instead of leaving a truncated file behind.
func writeCSV(path string, fn func(io.Writer) error) error {
	return serialize.WriteFileAtomic(path, fn)
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid flow count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no flow counts given")
	}
	return out, nil
}
