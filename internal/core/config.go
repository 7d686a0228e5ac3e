package core

import (
	"context"
	"fmt"

	"repro/internal/failure"
	"repro/internal/obsv"
	"repro/internal/rl"
)

// Config collects the NPTSN RL hyperparameters. DefaultConfig matches
// Table II of the paper.
type Config struct {
	// GCNLayers is the number of graph-convolution layers (0 disables the
	// GCN and feeds raw flattened features to the MLPs, Fig. 5a's GCN-0).
	GCNLayers int
	// GCNHidden is the per-node feature width of intermediate GCN layers.
	GCNHidden int
	// EmbeddingPerNode is the per-node output width of the last GCN layer;
	// the graph embedding vector has EmbeddingPerNode×|Vc| entries
	// (Table II: "Graph embedding features 2×|Vc|").
	EmbeddingPerNode int
	// MLPHidden are the actor/critic hidden layer sizes (256×256 default).
	MLPHidden []int
	// K is the number of path-addition actions generated by the SOAG.
	K int
	// MaxEpoch is the number of training epochs.
	MaxEpoch int
	// MaxStep is the number of environment steps gathered per epoch
	// (split across workers).
	MaxStep int
	// RewardScale divides raw cost deltas (Table II: 10^3).
	RewardScale float64
	// ClipRatio is PPO's ε.
	ClipRatio float64
	// ActorLR / CriticLR are the Adam learning rates.
	ActorLR  float64
	CriticLR float64
	// GAELambda and Discount parameterize advantage estimation.
	GAELambda float64
	Discount  float64
	// TrainPiIters / TrainVIters / TargetKL follow SpinningUp defaults.
	TrainPiIters int
	TrainVIters  int
	TargetKL     float64
	// Workers is the number of parallel exploration workers (the paper
	// parallelizes over 8 cores with MPI; we use goroutines with merged
	// buffers, which is gradient-equivalent).
	Workers int
	// AnalyzerWorkers bounds the failure analyzer's per-Analyze scenario
	// worker pool. Values <= 1 keep the sequential analyzer. Results are
	// bit-identical either way.
	AnalyzerWorkers int
	// AnalyzerCacheSize bounds the shared cross-call verdict cache (in
	// memoized scenarios) that all exploration workers of a run consult.
	// Zero disables memoization.
	AnalyzerCacheSize int
	// Seed makes training deterministic.
	Seed int64
	// DisableSOAGMasking is the SOAG-pruning ablation switch.
	DisableSOAGMasking bool
	// PerFlowEncoding switches the flow features to the §IV-C alternative
	// |Vc|×|FS| encoding (one column per flow, source = 1, destination =
	// 2) instead of the default |Vc|×|Ves| path-count matrix. Less
	// scalable, but it preserves per-flow identity.
	PerFlowEncoding bool
	// UseGAT replaces the GCN trunk by Graph Attention layers — the
	// alternative §IV-C discusses (and rejects for scalability); provided
	// for ablation.
	UseGAT bool
	// ExhaustivePathGeneration switches the SOAG to the §IV-B alternative
	// that enumerates shortest paths until K valid ones are found instead
	// of masking invalid candidates; for ablation only.
	ExhaustivePathGeneration bool
	// WarmStart seeds every environment reset with a prior solution's
	// topology and ASIL assignment, pruned to what the current problem
	// still admits (allocations on damaged links or foreign vertices are
	// dropped). This is the incremental re-planning mode: exploration
	// refines the surviving plan instead of rebuilding from the empty
	// network, and when the pruned seed already satisfies the reliability
	// guarantee the planner returns it instantly without training. The seed
	// is part of the checkpoint fingerprint — a checkpoint captured under
	// one seed cannot resume under another. Nil plans from scratch.
	WarmStart *Solution
	// OnWarmStart, when non-nil alongside WarmStart, receives the pruning
	// outcome once per run, after the environments are built and before any
	// training (or the instant-solve return). It runs on the planning
	// goroutine with no planner locks held; like Progress it must not call
	// back into the planner.
	OnWarmStart func(WarmStartInfo)
	// SharedAnalyzerCache, when non-nil, replaces the per-run verdict cache
	// AnalyzerCacheSize would allocate with a caller-owned one, letting
	// several planning runs share warm failure-analysis verdicts (the
	// service shares one cache across base and delta jobs). Verdict-cache
	// keys include the full problem context, so sharing across different
	// problems is safe and never changes any run's trajectory — a hit
	// returns exactly what the simulation would recompute.
	SharedAnalyzerCache *failure.Cache
	// DivergenceRetries is the rollback budget of the NaN watchdog: after a
	// PPO update produces non-finite losses or weights, the planner rolls
	// the global networks back to the pre-update snapshot, halves both
	// learning rates and retries, at most this many times per update.
	DivergenceRetries int
	// CheckpointEvery is the epoch interval between CheckpointFunc calls.
	// It must be positive when CheckpointFunc is set.
	CheckpointEvery int
	// CheckpointFunc, when set, receives a full training checkpoint every
	// CheckpointEvery epochs and once more for the last completed epoch
	// when training ends (normally or by cancellation). Typically it
	// persists the checkpoint via serialize.SaveCheckpoint. Returning an
	// error aborts training.
	CheckpointFunc func(*Checkpoint) error
	// Resume restarts training from a checkpoint captured by an earlier
	// run with an identical configuration, problem geometry and seed; the
	// resumed run reproduces the uninterrupted run's epochs exactly.
	Resume *Checkpoint
	// Progress, when non-nil, is called synchronously from the training
	// loop after each completed epoch with that epoch's statistics, in
	// epoch order. Callers use it for live reporting (the CLI's per-epoch
	// summary) or per-job progress tracking (the planning service). The
	// callback runs on the training goroutine: a slow or blocking Progress
	// stalls training, and it must not call back into the planner. The
	// planner holds no locks during the call — the exploration workers and
	// the policy batcher are parked between epochs — so a callback may
	// block without deadlocking the run.
	Progress func(EpochStats)
	// ExploreHook, when non-nil, runs on each exploration worker's
	// goroutine at the start of every exploration round, with the round's
	// epoch and the worker index. It is the planner's compute
	// fault-injection seam (internal/fault): a hook that panics simulates
	// a crashing worker (quarantined like any other worker panic), one
	// that blocks on ctx simulates a stuck worker that stops the epoch
	// clock until the context is cancelled, and one that sleeps simulates
	// a degraded core. Nil in production.
	ExploreHook func(ctx context.Context, epoch, worker int)
	// Metrics, when non-nil, receives live training instrumentation:
	// per-epoch reward/loss/entropy/KL gauges, environment step and reset
	// counters, PPO early stops and Adam step counts, analyzer scenario
	// throughput and verdict-cache effectiveness, checkpoint I/O
	// durations, watchdog rollbacks and worker quarantines. Serve it with
	// obsv.StartServer. Nil disables instrumentation at zero cost; the
	// recorded numbers never influence training.
	Metrics *obsv.Registry
	// Events, when non-nil, receives one structured telemetry event per
	// completed epoch, checkpoint write/restore, watchdog rollback and
	// worker quarantine (typically an *obsv.Log writing JSON lines). An
	// emission error aborts training, mirroring CheckpointFunc: a
	// telemetry sink that stopped being writable must not fail silently.
	Events obsv.Sink
}

// DefaultConfig returns the Table II defaults.
func DefaultConfig() Config {
	return Config{
		GCNLayers:        2,
		GCNHidden:        32,
		EmbeddingPerNode: 2,
		MLPHidden:        []int{256, 256},
		K:                16,
		MaxEpoch:         256,
		MaxStep:          2048,
		RewardScale:      1e3,
		ClipRatio:        0.2,
		ActorLR:          3e-4,
		CriticLR:         1e-3,
		GAELambda:        0.97,
		Discount:         0.99,
		TrainPiIters:     80,
		TrainVIters:      80,
		TargetKL:         0.01,
		Workers:          1,
		Seed:             1,

		DivergenceRetries: 3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GCNLayers < 0 {
		return fmt.Errorf("config: negative GCN layers")
	}
	if c.GCNLayers > 0 && (c.GCNHidden <= 0 || c.EmbeddingPerNode <= 0) {
		return fmt.Errorf("config: GCN widths must be positive")
	}
	if len(c.MLPHidden) == 0 {
		return fmt.Errorf("config: MLP needs at least one hidden layer")
	}
	for _, h := range c.MLPHidden {
		if h <= 0 {
			return fmt.Errorf("config: non-positive MLP hidden size")
		}
	}
	if c.K <= 0 {
		return fmt.Errorf("config: K must be positive")
	}
	if c.MaxEpoch <= 0 || c.MaxStep <= 0 {
		return fmt.Errorf("config: epochs and steps must be positive")
	}
	if c.RewardScale <= 0 {
		return fmt.Errorf("config: reward scale must be positive")
	}
	if c.Discount <= 0 || c.Discount > 1 || c.GAELambda < 0 || c.GAELambda > 1 {
		return fmt.Errorf("config: invalid discount/lambda")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("config: workers must be positive")
	}
	if c.Workers > c.MaxStep {
		// stepsPerWorker would floor to 0 and be bumped to 1, silently
		// collecting more steps per epoch than configured.
		return fmt.Errorf("config: %d workers exceed %d steps per epoch", c.Workers, c.MaxStep)
	}
	if c.AnalyzerWorkers < 0 {
		return fmt.Errorf("config: negative analyzer workers %d", c.AnalyzerWorkers)
	}
	if c.AnalyzerCacheSize < 0 {
		return fmt.Errorf("config: negative analyzer cache size %d", c.AnalyzerCacheSize)
	}
	if c.DivergenceRetries < 0 {
		return fmt.Errorf("config: negative divergence retry budget %d", c.DivergenceRetries)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("config: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.CheckpointFunc != nil && c.CheckpointEvery <= 0 {
		return fmt.Errorf("config: checkpointing enabled but interval is %d (must be positive)", c.CheckpointEvery)
	}
	return c.PPOConfig().Validate()
}

// PPOConfig is the rl layer's update config for these hyperparameters.
func (c Config) PPOConfig() rl.PPOConfig {
	return rl.PPOConfig{
		ClipRatio:    c.ClipRatio,
		ActorLR:      c.ActorLR,
		CriticLR:     c.CriticLR,
		TrainPiIters: c.TrainPiIters,
		TrainVIters:  c.TrainVIters,
		TargetKL:     c.TargetKL,
	}
}

// VerdictCache is the failure-analysis verdict cache one run shares across
// its environments: SharedAnalyzerCache when set, else a fresh cache of
// AnalyzerCacheSize entries, else nil (no memoization). A hit returns
// exactly what the simulation would recompute, so the choice never changes
// a result.
func (c Config) VerdictCache() *failure.Cache {
	if c.SharedAnalyzerCache != nil {
		return c.SharedAnalyzerCache
	}
	if c.AnalyzerCacheSize > 0 {
		return failure.NewCache(c.AnalyzerCacheSize)
	}
	return nil
}
