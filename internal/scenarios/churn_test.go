package scenarios

import (
	"encoding/json"
	"testing"

	"repro/internal/nbf"
	"repro/internal/serialize"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChurnTraceRepliesCleanly(t *testing.T) {
	s, err := Family("zonal", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := Churn(ChurnOptions{
		Scenario: s, BaseFlows: 3, Steps: 6,
		AddsPerStep: 2, RemovesPerStep: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Steps) != 6 {
		t.Fatalf("steps = %d, want 6", len(trace.Steps))
	}
	// Every step must apply to its predecessor's output, and the resulting
	// problem must decode and validate at each point of the chain.
	cur := trace.Base
	for i, d := range trace.Steps {
		next, err := serialize.ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("step %d does not apply: %v", i, err)
		}
		prob, err := serialize.DecodeProblem(next, nbf.NewRegistry())
		if err != nil {
			t.Fatalf("step %d output does not decode: %v", i, err)
		}
		if err := prob.Validate(); err != nil {
			t.Fatalf("step %d output does not validate: %v", i, err)
		}
		if len(next.Flows) == 0 {
			t.Fatalf("step %d left no flows", i)
		}
		cur = next
	}
}

func TestChurnDeterministic(t *testing.T) {
	s, err := Family("ring", 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := ChurnOptions{Scenario: s, BaseFlows: 3, Steps: 4, Seed: 5}
	a, err := Churn(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if ja != jb {
		t.Fatal("identical options produced different traces")
	}
}

func TestChurnValidation(t *testing.T) {
	s, err := Family("ring", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Churn(ChurnOptions{Scenario: nil, Seed: 1}); err == nil {
		t.Error("nil scenario accepted")
	}
	if _, err := Churn(ChurnOptions{Scenario: s}); err == nil {
		t.Error("zero seed accepted")
	}
}
