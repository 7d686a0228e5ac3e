package serialize

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// trainWithCheckpoint runs a tiny training job that saves a checkpoint file
// every epoch, returning the report and the checkpoint path.
func trainWithCheckpoint(t *testing.T, prob *core.Problem, epochs int, path string) *core.Report {
	t.Helper()
	cfg := checkpointConfig(epochs)
	if path != "" {
		cfg.CheckpointEvery = 1
		cfg.CheckpointFunc = func(ck *core.Checkpoint) error {
			return SaveCheckpoint(path, ck)
		}
	}
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkpointConfig(epochs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.GCNLayers = 1
	cfg.GCNHidden = 8
	cfg.EmbeddingPerNode = 2
	cfg.MLPHidden = []int{16}
	cfg.K = 4
	cfg.MaxEpoch = epochs
	cfg.MaxStep = 16
	cfg.TrainPiIters = 4
	cfg.TrainVIters = 4
	cfg.Workers = 2
	cfg.Seed = 23
	return cfg
}

// TestCheckpointFileRoundTripResume is the on-disk half of the resume
// guarantee: kill a run after 2 of 4 epochs, reload the checkpoint file,
// and the resumed run must match the uninterrupted reference exactly.
func TestCheckpointFileRoundTripResume(t *testing.T) {
	prob := fixtureProblem(t)
	ref := trainWithCheckpoint(t, prob, 4, "")

	path := filepath.Join(t.TempDir(), "run.ckpt")
	trainWithCheckpoint(t, prob, 2, path)

	ck, err := LoadCheckpoint(path, prob.Connections)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("loaded checkpoint at epoch %d, want 2", ck.Epoch)
	}

	cfg := checkpointConfig(4)
	cfg.Resume = ck
	pl, err := core.NewPlanner(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Epochs) != len(ref.Epochs) {
		t.Fatalf("resumed run has %d epochs, reference %d", len(resumed.Epochs), len(ref.Epochs))
	}
	for i := range ref.Epochs {
		a, b := ref.Epochs[i], resumed.Epochs[i]
		a.Duration, b.Duration = 0, 0
		a.ExploreTime, b.ExploreTime = 0, 0
		a.UpdateTime, b.UpdateTime = 0, 0
		a.PolicyForwardTime, b.PolicyForwardTime = 0, 0
		a.PolicyWaitTime, b.PolicyWaitTime = 0, 0
		a.AnalysisTime, b.AnalysisTime = 0, 0
		a.AnalysisCacheHits, b.AnalysisCacheHits = 0, 0
		a.AnalysisCacheMisses, b.AnalysisCacheMisses = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d diverged after file round trip:\n%+v\nvs\n%+v", i+1, a, b)
		}
	}
	if !reflect.DeepEqual(ref.FinalWeights, resumed.FinalWeights) {
		t.Fatal("final weights differ after file round trip")
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	prob := fixtureProblem(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	trainWithCheckpoint(t, prob, 2, path)
	ck, err := LoadCheckpoint(path, prob.Connections)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeCheckpoint(EncodeCheckpoint(ck), prob.Connections)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Weights, again.Weights) || !reflect.DeepEqual(ck.PPO, again.PPO) ||
		!reflect.DeepEqual(ck.Epochs, again.Epochs) || ck.Fingerprint != again.Fingerprint {
		t.Fatal("encode/decode round trip lost data")
	}
}

func TestLoadCheckpointRejectsTruncatedFile(t *testing.T) {
	prob := fixtureProblem(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	trainWithCheckpoint(t, prob, 2, path)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, prob.Connections); err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Fatalf("truncated checkpoint accepted: %v", err)
	}
}

func TestLoadCheckpointRejectsCorruptedFile(t *testing.T) {
	prob := fixtureProblem(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("{\"version\": \"not a number\""), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, prob.Connections); err == nil || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Fatalf("corrupted checkpoint accepted: %v", err)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt"), prob.Connections); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestDecodeCheckpointRejectsBadHeader(t *testing.T) {
	prob := fixtureProblem(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	trainWithCheckpoint(t, prob, 2, path)
	ck, err := LoadCheckpoint(path, prob.Connections)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodeCheckpoint(ck)

	bad := good
	bad.Version = CheckpointVersion + 1
	if _, err := DecodeCheckpoint(bad, prob.Connections); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch accepted: %v", err)
	}

	bad = good
	bad.Epoch = 0
	if _, err := DecodeCheckpoint(bad, prob.Connections); err == nil {
		t.Fatal("zero epoch accepted")
	}

	bad = good
	bad.Weights = nil
	if _, err := DecodeCheckpoint(bad, prob.Connections); err == nil {
		t.Fatal("empty weights accepted")
	}
}

func TestWriteFileAtomicReportsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFileAtomic(path, func(io.Writer) error { return os.ErrPermission }); err == nil {
		t.Fatal("writer error swallowed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left a destination file behind")
	}
	// No stray temp files either.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
