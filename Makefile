# Tier-1 gate and convenience targets. `make verify` must pass before
# every commit; CI runs the same script.

.PHONY: verify verify-full test build fuzz-smoke perfbench

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
# traced per-layer run and the self-test. It is the only performance
# measurement; `./scripts/verify.sh -bench` adds the allocs/op ratchet.
perfbench:
	for w in table5 chaos coord; do \
		bash perfbench/run.sh --workload $$w --seed 7 --seconds 30 --trace 0 || exit 1; \
	done

# Runs every native fuzz target for a short burst (default 10s each) on top
# of the committed corpora. FUZZTIME=1m make fuzz-smoke for longer runs.
fuzz-smoke:
	./scripts/fuzz_smoke.sh
