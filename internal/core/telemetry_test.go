package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obsv"
)

// TestTrainingWithMetricsAndEvents trains with the full observability
// stack on (shared registry, in-memory event sink, multiple exploration
// workers) and checks three things: the metrics agree with the report,
// the event log covers the run, and observability never changes what is
// learned.
func TestTrainingWithMetricsAndEvents(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.MaxEpoch = 3
	cfg.Workers = 2
	cfg.AnalyzerCacheSize = 1 << 10
	ref := train(t, prob, cfg)

	reg := obsv.NewRegistry()
	sink := &obsv.MemorySink{}
	cfg.Metrics = reg
	cfg.Events = sink
	got := train(t, prob, cfg)

	if !reflect.DeepEqual(stripDurations(got.Epochs), stripDurations(ref.Epochs)) {
		t.Fatal("metrics/events changed the training trajectory")
	}
	if !reflect.DeepEqual(got.FinalWeights, ref.FinalWeights) {
		t.Fatal("metrics/events changed the learned weights")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	wantSample := func(name string, want float64) {
		t.Helper()
		line := fmt.Sprintf("%s %g", name, want)
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
	var steps, trajectories int
	for _, es := range got.Epochs {
		steps += es.EnvSteps
		trajectories += es.Trajectories
	}
	wantSample("nptsn_epochs_total", float64(len(got.Epochs)))
	wantSample("nptsn_env_steps_total", float64(steps))
	wantSample("nptsn_trajectories_total", float64(trajectories))
	wantSample("nptsn_epoch_reward", got.Epochs[len(got.Epochs)-1].Reward)
	for _, h := range []string{"nptsn_epoch_duration_seconds_bucket", "nptsn_epoch_update_seconds_bucket"} {
		if !strings.Contains(text, h) {
			t.Fatalf("epoch histogram %s missing:\n%s", h, text)
		}
	}
	if !strings.Contains(text, "nptsn_analysis_cache_hits_total") {
		t.Fatalf("cache metrics missing:\n%s", text)
	}

	events := sink.Events()
	byType := map[string]int{}
	for _, e := range events {
		byType[e.Type]++
		if e.Time.IsZero() {
			t.Fatalf("event %+v not timestamped", e)
		}
	}
	if byType[obsv.EventRunStart] != 1 || byType[obsv.EventRunEnd] != 1 {
		t.Fatalf("run_start/run_end wrong: %v", byType)
	}
	if byType[obsv.EventEpoch] != cfg.MaxEpoch {
		t.Fatalf("%d epoch events for %d epochs", byType[obsv.EventEpoch], cfg.MaxEpoch)
	}
	for _, e := range events {
		if e.Type != obsv.EventEpoch {
			continue
		}
		var es *EpochStats
		for i := range got.Epochs {
			if got.Epochs[i].Epoch == e.Epoch {
				es = &got.Epochs[i]
			}
		}
		if es == nil {
			t.Fatalf("epoch event %d has no report entry", e.Epoch)
		}
		if e.V["reward"] != es.Reward || e.V["env_steps"] != float64(es.EnvSteps) ||
			e.V["solutions"] != float64(es.Solutions) ||
			e.V["explore_seconds"] != es.ExploreTime.Seconds() || e.V["update_seconds"] != es.UpdateTime.Seconds() {
			t.Fatalf("epoch %d event disagrees with report: %v vs %+v", e.Epoch, e.V, es)
		}
		// The parts are measured inside the epoch's wall clock, so the
		// residual Duration − ExploreTime − UpdateTime is never negative.
		if es.ExploreTime <= 0 || es.UpdateTime <= 0 || es.ExploreTime+es.UpdateTime > es.Duration {
			t.Fatalf("epoch %d: explore %v + update %v do not fit its %v", e.Epoch, es.ExploreTime, es.UpdateTime, es.Duration)
		}
	}
}

// TestTrainingEventSinkErrorAborts: a failing sink must abort training
// (mirroring CheckpointFunc) rather than silently dropping telemetry.
func TestTrainingEventSinkErrorAborts(t *testing.T) {
	prob := tinyProblem(t)
	cfg := tinyConfig()
	cfg.Events = failingSink{}
	pl, err := NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(); err == nil || !strings.Contains(err.Error(), "event sink") {
		t.Fatalf("failing sink did not abort training: %v", err)
	}
}

type failingSink struct{}

func (failingSink) Emit(obsv.Event) error { return fmt.Errorf("disk full") }
