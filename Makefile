GO ?= go
# bash for pipefail: the bench pipeline must fail when `go test -bench`
# fails, not when only the JSON conversion does.
SHELL := /bin/bash

.PHONY: build test race vet bench bench-compare bins race-bins serve cluster e2e chaos metrics-lint clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# bench runs the streaming-kernel benchmarks (exhaustive baseline vs
# touched-only scan in the same run, uniform + profiled + hierarchical
# matrices) plus the parallel-superstep worker sweeps, all with -benchmem,
# and emits BENCH_core.json — the machine-readable trajectory point future
# PRs compare against. The parallel families run at 30x: their kernel is
# zero-alloc, but the Go runtime occasionally re-allocates channel-park
# sudogs after a GC clears its caches, and at 3x that one-time noise can
# round up to 1 allocs/op; 30 iterations amortise it back below the
# integer floor without inflating the job (a warm superstep is ~10^-1 s).
# Every point runs three times (-count 3) and benchfmt records its median,
# so one sample taken while a shared host was busy cannot set a point.
bench:
	set -o pipefail; \
	{ $(GO) test -run '^$$' -bench 'BenchmarkStream' -benchtime 3x -count 3 -benchmem ./internal/core/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkParallel(Aware|Uniform)' -benchtime 30x -count 3 -benchmem ./internal/core/; } \
		| $(GO) run ./cmd/benchfmt -o BENCH_core.json

# bench-compare re-runs the smoke benchmarks (same sampling as the
# committed baseline) and fails if any exhaustive/fast speedup family or
# parallel_speedup curve collapsed by more than 1.5x against
# BENCH_core.json, or if a benchmark the baseline records at zero
# allocs/op started allocating — the CI guard against fast-path reverts
# and worker pools that quietly serialise.
bench-compare:
	set -o pipefail; \
	{ $(GO) test -run '^$$' -bench 'BenchmarkStream' -benchtime 3x -count 3 -benchmem ./internal/core/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkParallel(Aware|Uniform)' -benchtime 30x -count 3 -benchmem ./internal/core/; } \
		| $(GO) run ./cmd/benchfmt -o BENCH_new.json -compare BENCH_core.json -threshold 1.5

bins:
	$(GO) build -o bin/hpserve ./cmd/hpserve
	$(GO) build -o bin/hpgate ./cmd/hpgate

serve:
	$(GO) run ./cmd/hpserve -addr :8080

# cluster boots a local 2-backend sharded deployment: an hpgate gateway
# on :8080 with an empty member table, and two hpserve nodes that join it
# by self-registration (-announce) — no -backends flag anywhere. Ctrl-C
# stops all three.
cluster: bins
	@trap 'kill 0' EXIT INT TERM; \
	./bin/hpserve -addr 127.0.0.1:8081 -announce http://127.0.0.1:8080 & \
	./bin/hpserve -addr 127.0.0.1:8082 -announce http://127.0.0.1:8080 & \
	./bin/hpgate -addr 127.0.0.1:8080

# e2e runs the full chaos-case catalog (examples/cluster -list shows it):
# serving-path baselines plus every fault-injection case; non-zero exit on
# any failed check (the CI end-to-end job).
e2e: bins
	$(GO) run ./examples/cluster -hpserve bin/hpserve -hpgate bin/hpgate

race-bins:
	$(GO) build -race -o bin/hpserve.race ./cmd/hpserve
	$(GO) build -race -o bin/hpgate.race ./cmd/hpgate

# chaos is the CI robustness gate: the smoke-tagged chaos cases (backend
# SIGKILL mid-stream, torn-WAL restart recovery, breaker state walk,
# cache stampede, saturation -> spill -> 429 waterfall, ...) against
# race-instrumented binaries, so injected faults that expose data races
# fail the run too. Every case also lints both tiers' /metrics.
chaos: race-bins
	$(GO) run ./examples/cluster -smoke -hpserve bin/hpserve.race -hpgate bin/hpgate.race

# metrics-lint checks Prometheus text exposition: with no URLS it lints a
# built-in registry exercising every instrument kind (a CI smoke of the
# exposition writer); pass URLS="http://host:port ..." to lint live
# /metrics endpoints.
metrics-lint:
	$(GO) run ./cmd/metricslint $(if $(URLS),$(URLS),-selfcheck)

clean:
	$(GO) clean ./...
	rm -rf bin BENCH_new.json
