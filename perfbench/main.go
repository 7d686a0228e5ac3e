// Command perfbench is the repository's benchmark. It runs one workload —
// train-orion, serve-replan or serve-mix — checks every output, and prints
// a run header line and, as its last line, one JSON result object:
//
//	perfbench --workload serve-replan --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate,
// traced run that reports the per-layer metrics and writes its spans to
// .bench_build/trace-<workload>-<seed>.json. `perfbench compare A B`
// compares two sets of saved runs (see compare.go). perfbench/run.sh
// builds everything from source and is the entry point.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header describes the run so a saved result can be reproduced.
type header struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	GoVersion     string `json:"goVersion"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NProc         int    `json:"nproc"`
	CPUModel      string `json:"cpuModel"`
	GitSHA        string `json:"gitSha"`
	GitDirty      bool   `json:"gitDirty"`
	StepsPerEpoch int    `json:"stepsPerEpoch,omitempty"`
	Clients       int    `json:"clients,omitempty"`
	Workers       int    `json:"workers"`
	// JobsByTier counts a serve run's finished jobs per tier.
	JobsByTier map[string]int `json:"jobsByTier,omitempty"`
}

// options are the parsed command line of a run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: sources, built binaries, scratch
}

func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }

// workload runs one workload and fills the result; a returned error means
// the run could not be carried out at all.
type workload func(ctx context.Context, o options, h *header, r *result) error

var workloads = map[string]workload{
	"train-orion":  runTrainOrion,
	"serve-replan": func(ctx context.Context, o options, h *header, r *result) error { return runServe(ctx, o, h, r, false) },
	"serve-mix":    func(ctx context.Context, o options, h *header, r *result) error { return runServe(ctx, o, h, r, true) },
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code: 0 when every
// output was correct, 1 when a wrong output was seen (the result is still
// printed), 2 when the run could not be carried out.
func run(ctx context.Context, args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "train-orion, serve-replan or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root holding the sources and .bench_build")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.seed == 0 {
		return 2, fmt.Errorf("need --seconds >= 1 and a non-zero --seed")
	}
	if err := os.MkdirAll(o.buildDir(), 0o755); err != nil {
		return 2, err
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return 2, err
	}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	h := newHeader(o)
	r := &result{Correct: true, Metrics: map[string]metric{}}
	if o.trace {
		// A layer a workload does not run reports zero.
		for _, m := range want {
			r.set(m.Name, 0, m.Unit)
		}
	}
	if err := wl(ctx, o, &h, r); err != nil {
		return 2, err
	}
	if r.Attempted < 1 {
		return 2, fmt.Errorf("no operation attempted")
	}
	if o.trace {
		r.set("failed_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	if err := r.matches(want); err != nil {
		return 2, err
	}
	hb, err := json.Marshal(map[string]header{"header": h})
	if err != nil {
		return 2, err
	}
	rb, err := json.Marshal(r)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "%s\n%s\n", hb, rb)
	if !r.Correct || r.Failed > 0 {
		return 1, fmt.Errorf("%d of %d operations failed or were wrong", r.Failed, r.Attempted)
	}
	return 0, nil
}

// fail records a wrong or failed operation and explains it on stderr.
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: wrong output: "+format+"\n", args...)
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// loadSpec reads the benchmark definition.
func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// matches checks that the result reports exactly the defined metrics, each
// with its defined unit.
func (r *result) matches(want []metricSpec) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json defines %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s reported in %s, defined in %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

func newHeader(o options) header {
	h := header{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitSHA:     "unknown",
	}
	// The checkout may not be a git repository; the SHA is then unknown.
	if sha, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(sha))
		st, err := exec.Command("git", "-C", o.root, "status", "--porcelain", "--untracked-files=no").Output()
		h.GitDirty = err == nil && len(strings.TrimSpace(string(st))) > 0
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
