# Convenience targets for the NPTSN reproduction.

GO ?= go

.PHONY: all build test test-short race race-analyzer race-service chaos chaos-fleet vet lint bench bench-quick bench-json eval-micro eval-small examples coverage loc clean certify fuzz serve-smoke fleet-smoke delta-smoke pretrain-smoke

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: vet always; staticcheck when it is on PATH (CI installs
# it, local setups may not have it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent training core (multi-worker
# exploration, panic quarantine, cancellation).
race:
	$(GO) test -race -short ./...

# Full (non-short) race pass over the failure-analysis engine and the
# planner that shares its verdict cache across workers.
race-analyzer:
	$(GO) test -race ./internal/failure/... ./internal/core/...

# Full race pass over the planning service (worker pool, cache, drain)
# and the fleet layer built on top of it (coordinator, ring, agent).
race-service:
	$(GO) test -race ./internal/service/... ./internal/fleet/... ./cmd/nptsn-serve/... ./cmd/nptsn-fleet/...

# Black-box smoke test of the nptsn-serve daemon: boot on an ephemeral
# port, plan the shipped example over HTTP, check /metrics.
serve-smoke:
	sh scripts/serve_smoke.sh

# Black-box smoke of the incremental re-planning path: plan a base job,
# then drive an empty delta (plan-cache hit), a flow-removal delta
# (warm-started, zero training epochs) and a post-restart delta by base
# fingerprint through the live HTTP API.
delta-smoke:
	sh scripts/delta_smoke.sh

# Black-box smoke of the policy zoo fast path: pretrain one tiny scenario
# into a fresh zoo with nptsn-pretrain, boot a zoo-armed nptsn-serve, and
# serve that scenario's own spec through the inference-only path — asserting
# provenance "zoo", zero training epochs, a passing certificate, the
# nptsn_zoo_hits_total metric, and a SIGHUP manifest reload.
pretrain-smoke:
	sh scripts/pretrain_smoke.sh

# Black-box failover drill of the planning fleet: coordinator + three
# replicas on ephemeral ports, the job's home replica SIGKILLed mid-run,
# completion asserted on a survivor with the death and handoff visible
# on /v1/fleet and /metrics.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Seeded fault-injection drills for the job engine: panics, torn writes,
# ENOSPC, crash/restart journaling, hung epochs — under the race detector,
# twice, so nondeterministic schedules get two chances to misbehave. Every
# drill logs its "fault: seed=... schedule=..." line; rerun a failure by
# fixing that seed in the test.
chaos:
	$(GO) test -race -count=2 -run 'Chaos' ./internal/service/... ./internal/fault/...

# Seeded chaos drills for the fleet layer: replica death mid-run, torn
# and hung coordinator→replica HTTP, heartbeat partitions, coordinator
# restart — under the race detector, twice. Every drill asserts the job
# completed exactly once (adoption-by-fingerprint) and logs its seeded
# schedule line for bit-exact reproduction.
chaos-fleet:
	$(GO) test -race -count=2 -run 'ChaosFleet' ./internal/fleet/...

# One iteration of every table/figure/ablation benchmark.
bench-quick:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Machine-readable run of the analyzer + scheduler + warm-vs-cold delta +
# zoo-inference + Table II PPO-update benchmarks. Writes
# BENCH_<n>.json with the next free index so successive runs are kept
# side by side for before/after comparison.
bench-json:
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	out=BENCH_$$n.json; \
	$(GO) test -run xxx -json \
		-bench 'BenchmarkFailureAnalysisORION|BenchmarkFailureAnalysisORIONEngine|BenchmarkScheduler|BenchmarkPolicyForward|BenchmarkDeltaColdStart|BenchmarkDeltaWarmStart|BenchmarkZooInference|BenchmarkPPOUpdateORION' \
		-benchmem . ./internal/core/ > $$out || { cat $$out; rm -f $$out; exit 1; }; \
	echo "wrote $$out"

# Regenerate the evaluation figures at interactive scale.
eval-micro:
	$(GO) run ./cmd/nptsn-eval -fig all -scale micro

eval-small:
	$(GO) run ./cmd/nptsn-eval -fig all -scale small -cases 5 -flows 10,20,30,40,50

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ads
	$(GO) run ./examples/custom-nbf
	$(GO) run ./examples/simulate
	$(GO) run ./examples/orion

# Independent certification audit of the shipped example solution.
certify:
	$(GO) run ./cmd/nptsn-certify -problem testdata/example-problem.json -solution testdata/example-solution.json

# Short coverage-guided fuzzing pass over the untrusted decode paths.
fuzz:
	$(GO) test ./internal/serialize -run '^$$' -fuzz FuzzProblemSpec -fuzztime 20s
	$(GO) test ./internal/serialize -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 20s
	$(GO) test ./internal/zoo -run '^$$' -fuzz FuzzZooManifest -fuzztime 20s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 20s
	$(GO) test ./internal/serialize -run '^$$' -fuzz FuzzDeltaJSON -fuzztime 20s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzJobRequest -fuzztime 20s

coverage:
	$(GO) test -cover ./...

loc:
	@find . -name '*.go' | xargs wc -l | tail -1

clean:
	$(GO) clean -testcache
