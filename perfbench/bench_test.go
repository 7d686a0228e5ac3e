package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/nbf"
)

// stream generates the first n request bodies of every client of a seed.
func stream(t *testing.T, seed int64, mix bool, n int) [][]byte {
	t.Helper()
	bases, err := makeBases(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for c := 0; c < serveClients; c++ {
		g := newGenerator(seed, c, mix, bases)
		for i := 0; i < n; i++ {
			req, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, req.body)
		}
	}
	return out
}

func TestSameSeedSameRequestBodies(t *testing.T) {
	for _, mix := range []bool{false, true} {
		a, b := stream(t, 7, mix, 150), stream(t, 7, mix, 150)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("mix=%v: request %d differs between two generations of seed 7", mix, i)
			}
		}
		c := stream(t, 8, mix, 150)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("mix=%v: seeds 7 and 8 generated identical streams", mix)
		}
	}
}

func TestSameSeedSameFlowSets(t *testing.T) {
	a, err := orionProblem(11, &nbf.StatelessRecovery{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := orionProblem(11, &nbf.StatelessRecovery{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) || len(a.Flows) != trainFlows {
		t.Fatalf("seed 11 gave different ORION flow sets")
	}
	c, err := orionProblem(12, &nbf.StatelessRecovery{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Flows, c.Flows) {
		t.Fatalf("seeds 11 and 12 gave the same ORION flow set")
	}
}

func TestStreamHasEveryTier(t *testing.T) {
	bases, err := makeBases(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[tier]int{}
	g := newGenerator(3, 0, true, bases)
	for i := 0; i < 400; i++ {
		req, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		seen[req.tier]++
	}
	for _, tr := range []tier{tierCache, tierWarm, tierZoo, tierCold, tierWarmTrain} {
		if seen[tr] == 0 {
			t.Errorf("serve-mix stream of 400 requests has no %s request", tr)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(1000), 100); err == nil {
		t.Error("p100 must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default exclusive method.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample must be refused")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"identical", base, base, true, "same"},
		{"faster in every pair", base, scale(base, 0.8), true, "better"},
		{"slower beyond the bound", base, scale(base, 1.3), true, "worse"},
		{"slower within the bound", base, scale(base, 1.05), true, "same"},
		{"higher is better, lower beyond the bound", base, scale(base, 0.7), false, "worse"},
		{"higher is better, higher in every pair", base, scale(base, 1.2), false, "better"},
		{"spread wider than the bound", noisy, scale(noisy, 1.01), true, "unresolved"},
		{"spread wider but every run better", noisy, scale(noisy, 0.2), true, "better"},
	}
	for _, c := range cases {
		v, err := judge(c.a, c.b, c.lowerBetter, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v.call != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v.call, c.want)
		}
	}
}

func TestSelfTimesAndReconcile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: ms(100), Group: 1},
		{ID: 2, Name: "a", Start: ms(0), End: ms(40), Parent: 1, Group: 1},
		{ID: 3, Name: "b", Start: ms(40), End: ms(90), Parent: 1, Group: 1},
		{ID: 4, Name: "c", Start: ms(50), End: ms(70), Parent: 3, Group: 1},
	}
	self := selfTimes(spans)
	if self[1] != ms(10) || self[3] != ms(30) || self[4] != ms(20) {
		t.Fatalf("self times %v", self)
	}
	gap := func(spans []span) float64 {
		t.Helper()
		gaps, err := reconcile(spans, "job")
		if err != nil || len(gaps) != 1 {
			t.Fatalf("reconcile = %v, %v", gaps, err)
		}
		return gaps[0]
	}
	// The layers cover 90 of the root's 100 ms: the root's 10 ms of self
	// time is the gap.
	if g := gap(spans); math.Abs(g-0.1) > 1e-9 {
		t.Fatalf("gap %v, want 0.1", g)
	}
	covered := append(spans[:2:2], span{ID: 3, Name: "b", Start: ms(40), End: ms(97), Parent: 1, Group: 1}, spans[3])
	if g := gap(covered); math.Abs(g-0.03) > 1e-9 {
		t.Fatalf("gap %v, want 0.03", g)
	}
	// Time inside the root that no layer span covers opens a gap.
	short := append(spans[:2:2], span{ID: 3, Name: "b", Start: ms(40), End: ms(80), Parent: 1, Group: 1}, spans[3])
	if g := gap(short); g <= maxGap {
		t.Fatalf("a root with 20%% un-spanned time has gap %v", g)
	}
	// Overlapping siblings count the overlap twice: the sum exceeds the
	// wall by more than a tenth.
	bad := append(covered[:3:3], span{ID: 4, Name: "d", Start: ms(10), End: ms(60), Parent: 1, Group: 1})
	if g := gap(bad); g <= maxGap {
		t.Fatalf("overlapping children have gap %v", g)
	}
	if _, err := reconcile(spans[1:], "job"); err == nil {
		t.Fatal("spans without a root reconciled")
	}
}

func TestReadRunsPairsHeaderAndResult(t *testing.T) {
	in := strings.Join([]string{
		"noise",
		`{"header":{"workload":"serve-mix","seed":1,"trace":false}}`,
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_ms":{"value":1.5,"unit":"ms"}}}`,
		`{"header":{"workload":"serve-mix","seed":2,"trace":false}}`,
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_ms":{"value":2.5,"unit":"ms"}}}`,
	}, "\n")
	runs, err := readRuns(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[1].h.Seed != 2 || values(runs, "op_p50_ms")[1] != 2.5 {
		t.Fatalf("runs = %+v", runs)
	}
}
