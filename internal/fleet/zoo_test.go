package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nbf"
	"repro/internal/serialize"
	"repro/internal/service"
	"repro/internal/zoo"
)

// pretrainFleetZoo trains one policy on the fleet fixture problem and
// stores it in a fresh zoo directory — the shared zoo every replica opens.
func pretrainFleetZoo(t *testing.T) *zoo.Zoo {
	t.Helper()
	req := tinyRequest(t, 1)
	prob, err := serialize.DecodeProblem(req.Problem, nbf.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cfg := req.Params.EffectiveConfig()
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
		Name:          "fleet-tiny",
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

// TestFleetZooRoutingShortCircuitsSharding: with a shared zoo armed on
// every replica, submissions route by fingerprint like any other job (the
// coordinator no longer probes the zoo) and the replicas short-circuit
// training through the inference fast path — certified plans with zero
// training epochs.
func TestFleetZooRoutingShortCircuitsSharding(t *testing.T) {
	z := pretrainFleetZoo(t)
	sink := &memSink{}
	c := New(chaosOptions(sink, nil))
	defer c.Close()
	for _, id := range []string{"r1", "r2", "r3"} {
		startTestReplica(t, c, id, service.Options{Zoo: z})
	}

	ctx := context.Background()
	const jobs = 3
	ids := make([]string, 0, jobs)
	for seed := int64(1); seed <= jobs; seed++ {
		st, err := c.Submit(ctx, tinyRequest(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	for _, id := range ids {
		waitFleetState(t, c, id, service.StateDone)
		res, err := c.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Provenance != service.ProvenanceZoo {
			t.Fatalf("job %s provenance = %q, want %q", id, res.Provenance, service.ProvenanceZoo)
		}
		if res.Epochs != 0 {
			t.Fatalf("job %s trained %d epochs through the fleet fast path, want 0", id, res.Epochs)
		}
		if res.Certificate == nil || !res.Certificate.OK() {
			t.Fatalf("job %s served without a passing certificate", id)
		}
	}

	if got := sink.count(EventDeltaFallback); got != 0 {
		t.Fatalf("%d delta_fallback events for non-delta zoo jobs", got)
	}
}
