package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// savedRun is one run read back from saved output.
type savedRun struct {
	h header
	r result
}

// readRuns reads saved benchmark output: any number of runs, each a
// header line followed by its result line. Other lines are skipped.
func readRuns(rd io.Reader) ([]savedRun, error) {
	var out []savedRun
	var cur *header
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		if strings.HasPrefix(line, `{"header"`) {
			var hw map[string]header
			if err := json.Unmarshal([]byte(line), &hw); err != nil {
				return nil, fmt.Errorf("header: %w", err)
			}
			h := hw["header"]
			cur = &h
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("result line without a header line before it")
		}
		out = append(out, savedRun{h: *cur, r: r})
		cur = nil
	}
	return out, sc.Err()
}

// verdict is the comparator's judgement of one workload × metric.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	call           string // better, worse, same or unresolved
}

// judge compares runs a (the base) with runs b (the change) under the
// choosing-metrics rules: a metric whose run-to-run spread (quartile
// distance over median, on either side) is wider than its bound is
// unresolved unless every run of the change beats every run of the base; a
// median worse by more than the bound is worse; a change that wins at
// least nine tenths of the pairs and moves the median by more than the
// base's quartile distance is better; anything else is the same.
func judge(a, b []float64, lowerBetter bool, bound float64) (verdict, error) {
	var v verdict
	var err error
	if v.q1A, v.q3A, err = quartiles(a); err != nil {
		return v, err
	}
	if v.q1B, v.q3B, err = quartiles(b); err != nil {
		return v, err
	}
	v.medA, v.medB = median(a), median(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	dominates := func(x, y []float64) bool { // every x better than every y
		for _, xi := range x {
			for _, yi := range y {
				if !better(xi, yi) {
					return false
				}
			}
		}
		return true
	}
	spread := math.Max(relSpread(v.q1A, v.q3A, v.medA), relSpread(v.q1B, v.q3B, v.medB))
	worse := (v.medB - v.medA) / math.Abs(v.medA)
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case spread > bound && dominates(b, a):
		v.call = "better"
	case spread > bound:
		v.call = "unresolved"
	case worse > bound:
		v.call = "worse"
	case float64(v.wins) >= 0.9*float64(v.pairs) && better(v.medB, v.medA) &&
		math.Abs(v.medB-v.medA) > v.q3A-v.q1A:
		v.call = "better"
	default:
		v.call = "same"
	}
	return v, nil
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// runCompare is `perfbench compare [-bench BENCHMARK.json] BASE CHANGE`:
// BASE and CHANGE are files of saved runs (stdout of perfbench, appended).
// Runs pair up in file order within each workload.
func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] BASE CHANGE")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	var sides [2]map[string][]savedRun
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		runs, err := readRuns(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sides[i] = map[string][]savedRun{}
		for _, r := range runs {
			key := r.h.Workload
			if r.h.Trace {
				key += " (traced)"
			}
			sides[i][key] = append(sides[i][key], r)
		}
	}
	var keys []string
	for k := range sides[0] {
		if _, ok := sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tpairs won\tbound\tverdict")
	for _, k := range keys {
		a, b := sides[0][k], sides[1][k]
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			xa, xb := values(a, m.Name), values(b, m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				continue
			}
			bound := m.Bound
			if bound == 0 {
				bound = math.Inf(1) // per-layer metrics carry no bound
			}
			v, err := judge(xa, xb, m.Better != "higher", bound)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g] n=%d\t%.4g [%.4g, %.4g] n=%d\t%d/%d\t%g\t%s\n",
				k, m.Name, m.Unit, v.medA, v.q1A, v.q3A, len(xa), v.medB, v.q1B, v.q3B, len(xb),
				v.wins, v.pairs, m.Bound, v.call)
		}
	}
	return tw.Flush()
}

func values(runs []savedRun, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
