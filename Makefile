# Tier-1 gate and convenience targets. `make verify` must pass before
# every commit; CI runs the same script.

.PHONY: verify verify-full test bench bench-compare bench-scaling build fuzz-smoke perfbench

verify:
	./scripts/verify.sh

# Includes the 24h-budget campaign tests (slow; what CI runs nightly).
verify-full:
	./scripts/verify.sh -full

build:
	go build ./...

test:
	go test ./...

# The repository's benchmark (perfbench/README.md): runs each workload of
# BENCHMARK.json for 30 s on the held-out seed 7 and prints its
# end-to-end metrics as the last line. perfbench/README.md documents the
# traced per-layer run and the self-test.
perfbench:
	for w in table5 chaos coord; do \
		bash perfbench/run.sh --workload $$w --seed 7 --seconds 30 --trace 0 || exit 1; \
	done

# Runs the fleet benchmarks with -benchmem and writes BENCH_fleet.json
# (name, ns/op, B/op, allocs/op, sim-rate per worker-count variant).
bench:
	./scripts/bench.sh

# Runs the fleet worker-scaling sweep and writes BENCH_scaling.json
# (sim-rate, parallel efficiency, per-phase wall share, ranked bottlenecks).
# `./scripts/bench_scaling.sh -gate` also fails on >10% efficiency
# regression vs the committed report (the nightly CI leg).
bench-scaling:
	./scripts/bench_scaling.sh

# Re-runs the benchmarks and diffs against scripts/bench_baseline.txt —
# via benchstat when installed, via the built-in awk comparator otherwise.
# Refresh the baseline with `./scripts/bench.sh -baseline`.
bench-compare:
	./scripts/bench_compare.sh

# Runs every native fuzz target for a short burst (default 10s each) on top
# of the committed corpora. FUZZTIME=1m make fuzz-smoke for longer runs.
fuzz-smoke:
	./scripts/fuzz_smoke.sh
