package service

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/serialize"
	"repro/internal/zoo"
)

// pretrainTinyZoo trains one policy on tinyRequest's problem under its
// effective configuration and stores it in a fresh zoo — the fixture the
// fast-path tests serve from.
func pretrainTinyZoo(t *testing.T) *zoo.Zoo {
	t.Helper()
	req := tinyRequest(t)
	prob, err := serialize.DecodeProblem(req.Problem, nbf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.Params.normalized().config()
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if report.Best == nil {
		t.Fatal("pretraining found no plan; the fixture budget is too small")
	}
	z, _, err := zoo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	geo, err := zoo.GeometryOf(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Add(zoo.Entry{
		Name:          "tiny",
		Geometry:      geo,
		Features:      zoo.FeaturesOf(prob),
		TrainedEpochs: len(report.Epochs),
		BestCost:      report.Best.Cost,
		CreatedAtUnix: time.Now().Unix(),
	}, report.FinalWeights); err != nil {
		t.Fatal(err)
	}
	return z
}

// TestZooHitServesCertifiedPlanWithZeroEpochs is the acceptance test for
// the inference fast path: a zoo-armed manager answers a matching
// submission with a certified plan and spends no training epochs on it.
func TestZooHitServesCertifiedPlanWithZeroEpochs(t *testing.T) {
	z := pretrainTinyZoo(t)
	m := newTestManager(t, Options{Zoo: z})

	st, err := m.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if final.Provenance != ProvenanceZoo {
		t.Fatalf("status provenance = %q, want %q", final.Provenance, ProvenanceZoo)
	}
	if len(final.Chain) != 1 || final.Chain[0] != "zoo" {
		t.Fatalf("attempt chain = %v, want [zoo]", final.Chain)
	}

	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 0 {
		t.Fatalf("zoo hit trained %d epochs, want 0", res.Epochs)
	}
	if res.Provenance != ProvenanceZoo {
		t.Fatalf("result provenance = %q, want %q", res.Provenance, ProvenanceZoo)
	}
	if res.Solution == nil || !res.GuaranteeMet {
		t.Fatalf("zoo result lacks a guaranteed solution: %+v", res)
	}
	// The accept gate is unconditional: even without ?certify the result
	// carries the audit's certificate.
	if res.Certificate == nil || !res.Certificate.OK() {
		t.Fatal("zoo result served without a passing certificate")
	}
}

// TestZooRejectFallsBackToTraining forces the certification gate to fail
// (the candidate plan is tampered with after the rollout) and asserts the
// attempt chain degrades to cold training instead of failing the job.
func TestZooRejectFallsBackToTraining(t *testing.T) {
	z := pretrainTinyZoo(t)
	m := newTestManager(t, Options{
		Zoo: z,
		// Recorded-vs-recomputed cost mismatch: verification rejects the
		// candidate exactly as it would a genuinely broken transfer.
		testZooTamper: func(sol *core.Solution) { sol.Cost += 1000 },
	})

	st, err := m.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s), want done — a zoo reject must not fail the job", final.State, final.Error)
	}
	if final.Provenance != ProvenanceTrained {
		t.Fatalf("status provenance = %q, want %q", final.Provenance, ProvenanceTrained)
	}
	if len(final.Chain) != 2 || final.Chain[0] != "zoo" || final.Chain[1] != "cold" {
		t.Fatalf("attempt chain = %v, want [zoo cold]", final.Chain)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("fallback did not train")
	}
	if res.Provenance != ProvenanceTrained {
		t.Fatalf("result provenance = %q, want %q", res.Provenance, ProvenanceTrained)
	}
	if res.Solution == nil || !res.GuaranteeMet {
		t.Fatalf("fallback result lacks a guaranteed solution: %+v", res)
	}
}

// TestCacheReServePreservesZooProvenance pins the provenance contract on
// the plan cache: a re-served result keeps how the plan was computed
// ("zoo"), while the re-serving job's own status says "cache".
func TestCacheReServePreservesZooProvenance(t *testing.T) {
	z := pretrainTinyZoo(t)
	m := newTestManager(t, Options{Zoo: z})

	first, err := m.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, first.ID); st.Provenance != ProvenanceZoo {
		t.Fatalf("first job provenance = %q, want %q", st.Provenance, ProvenanceZoo)
	}

	second, err := m.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, second.ID)
	if st.Provenance != ProvenanceCache {
		t.Fatalf("cache-hit status provenance = %q, want %q", st.Provenance, ProvenanceCache)
	}
	res, err := m.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance != ProvenanceZoo {
		t.Fatalf("re-served result provenance = %q, want the original %q", res.Provenance, ProvenanceZoo)
	}
	if res.Epochs != 0 || res.Certificate == nil {
		t.Fatalf("re-serve dropped the zoo result's content: epochs=%d cert=%v", res.Epochs, res.Certificate != nil)
	}
}

// TestTrainedProvenanceWithoutZoo pins the default attribution: a plain
// manager (no zoo) reports cold training.
func TestTrainedProvenanceWithoutZoo(t *testing.T) {
	m := newTestManager(t, Options{})
	st, err := m.Submit(tinyRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if final.Provenance != ProvenanceTrained {
		t.Fatalf("provenance = %q, want %q", final.Provenance, ProvenanceTrained)
	}
	if len(final.Chain) != 1 || final.Chain[0] != "cold" {
		t.Fatalf("chain = %v, want [cold]", final.Chain)
	}
	res, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance != ProvenanceTrained {
		t.Fatalf("result provenance = %q", res.Provenance)
	}
}

// TestRunSecondsCoversAcceptGate pins Result.RunSeconds' one definition:
// from the start of the producing attempt to the end of the accept gate,
// so for every provenance it covers the certification audit.
func TestRunSecondsCoversAcceptGate(t *testing.T) {
	zooM := newTestManager(t, Options{Zoo: pretrainTinyZoo(t)})
	trainedM := newTestManager(t, Options{})
	certified := tinyRequest(t)
	certified.Certify = true
	for _, tc := range []struct {
		m    *Manager
		want string
	}{{zooM, ProvenanceZoo}, {trainedM, ProvenanceTrained}} {
		st, err := tc.m.Submit(certified)
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, tc.m, st.ID); final.State != StateDone {
			t.Fatalf("%s job = %s (%s)", tc.want, final.State, final.Error)
		}
		res, err := tc.m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Provenance != tc.want || res.Certificate == nil {
			t.Fatalf("provenance %q with certificate %v, want a certified %q plan", res.Provenance, res.Certificate != nil, tc.want)
		}
		if res.RunSeconds*1000 < float64(res.Certificate.WallMillis) {
			t.Fatalf("%s result: RunSeconds %.4fs ends before its %dms audit", tc.want, res.RunSeconds, res.Certificate.WallMillis)
		}
	}
}
