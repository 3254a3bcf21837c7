#!/bin/sh
# verify.sh — the tier-1 gate: formatting, vet, build, and the race-enabled
# short test suite. Run before every commit; `make verify` wraps it.
#
#   ./scripts/verify.sh          # short suite (fast)
#   ./scripts/verify.sh -full    # include the 24h-budget campaign tests
#   ./scripts/verify.sh -fuzz    # also run the fuzz-smoke burst afterwards
#   ./scripts/verify.sh -bench   # also ratchet allocs/op vs scripts/allocs_baseline.txt
set -eu

cd "$(dirname "$0")/.."

short="-short"
fuzz=""
bench=""
for arg in "$@"; do
    case "$arg" in
    -full) short="" ;;
    -fuzz) fuzz="yes" ;;
    -bench) bench="yes" ;;
    *)
        echo "verify.sh: unknown flag $arg (want -full, -fuzz, and/or -bench)" >&2
        exit 2
        ;;
    esac
done

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not on PATH; skipping"
fi

echo "== go build =="
go build ./...

echo "== go test -race -cover $short =="
cover_raw="$(mktemp)"
test_status="$(mktemp)"
trap 'rm -f "$cover_raw" "$test_status"' EXIT
# Plain-sh pitfall: `go test | tee` exits with tee's status, so `set -eu`
# would sail past test failures. Smuggle the real status through a file.
{ go test -race -cover $short ./... || echo "$?" > "$test_status"; } | tee "$cover_raw"
# CI uploads the raw coverage output as an artifact when asked — copied
# before the failure check so a red run still leaves the artifact behind.
if [ -n "${COVER_OUT:-}" ]; then
    cp "$cover_raw" "$COVER_OUT"
fi
if [ -s "$test_status" ]; then
    echo "verify: go test failed (exit $(cat "$test_status"))" >&2
    exit "$(cat "$test_status")"
fi

echo "== coverage baseline =="
baseline="scripts/coverage_baseline.txt"
if [ -f "$baseline" ]; then
    # Fail when any baselined package's statement coverage falls more than
    # two points below the committed figure, and when an internal/ package
    # reports coverage without a committed baseline — new subsystems must
    # run scripts/coverage_baseline.sh -add-missing before landing.
    awk -v drop=2.0 '
    NR == FNR { base[$1] = $2; next }
    $1 == "ok" {
        for (i = 1; i <= NF; i++) if ($i == "coverage:") {
            pct = $(i+1)
            sub(/%/, "", pct)
            if (pct ~ /^[0-9.]+$/) cov[$2] = pct
        }
    }
    END {
        bad = 0
        for (pkg in base) {
            if (!(pkg in cov)) {
                printf "coverage: baselined package %s missing from test run\n", pkg
                bad = 1
            } else if (cov[pkg] + drop < base[pkg]) {
                printf "coverage: %s dropped %.1f%% -> %.1f%% (allowed slack %.1f pts)\n",
                    pkg, base[pkg], cov[pkg], drop
                bad = 1
            }
        }
        for (pkg in cov) if (!(pkg in base)) {
            if (pkg ~ /\/internal\//) {
                printf "coverage: %s is not baselined; run scripts/coverage_baseline.sh -add-missing\n", pkg
                bad = 1
            } else {
                printf "coverage: warning: %s is not baselined; run scripts/coverage_baseline.sh -add-missing\n", pkg
            }
        }
        if (!bad) print "coverage: all baselined packages within " drop " pts"
        exit bad
    }' "$baseline" "$cover_raw"
else
    echo "no $baseline; run scripts/coverage_baseline.sh to create one"
fi

if [ -n "$fuzz" ]; then
    echo "== fuzz smoke =="
    ./scripts/fuzz_smoke.sh
fi

if [ -n "$bench" ]; then
    echo "== allocs/op ratchet =="
    # Fail when a benchmark named in scripts/allocs_baseline.txt (one
    # "<benchmark> <allocs/op>" line each, edited by hand) allocates more
    # than 10% over its committed figure, or was not measured at all, so a
    # renamed or deleted benchmark cannot pass. allocs/op is used because
    # it is iteration-exact — unlike ns/op it does not wobble with machine
    # load, so a 2-iteration run gates reliably. Wall-clock performance is
    # measured by perfbench (perfbench/README.md).
    allocs_baseline="scripts/allocs_baseline.txt"
    if [ ! -f "$allocs_baseline" ]; then
        echo "allocs ratchet: $allocs_baseline is missing" >&2
        exit 1
    fi
    bench_raw="$(mktemp)"
    bench_status="$(mktemp)"
    { go test ./internal/harness -run '^$' -bench 'BenchmarkFleetParallelism/workers=1$|BenchmarkCovFuzz$' \
        -benchmem -benchtime 2x || echo "$?" > "$bench_status"; } | tee "$bench_raw"
    if [ -s "$bench_status" ]; then
        echo "verify: benchmark run failed (exit $(cat "$bench_status"))" >&2
        rm -f "$bench_raw" "$bench_status"
        exit 1
    fi
    rm -f "$bench_status"
    awk '
    NR == FNR {
        if (NF == 0) next
        if (NF != 2 || $2 !~ /^[0-9]+$/) {
            printf "allocs ratchet: malformed baseline line %d: %s\n", FNR, $0
            bad = 1
            next
        }
        base[$1] = $2
        next
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") now[name] = $i
    }
    END {
        checked = 0
        for (name in base) {
            checked++
            if (!(name in now)) {
                printf "allocs ratchet: %s: baselined but not measured\n", name
                bad = 1
            } else if (now[name] + 0 > base[name] * 1.10) {
                printf "allocs ratchet: %s: %d allocs/op exceeds baseline %d by more than 10%%\n",
                    name, now[name], base[name]
                bad = 1
            } else {
                printf "allocs ratchet: %s: %d allocs/op within 10%% of baseline %d\n",
                    name, now[name], base[name]
            }
        }
        if (!checked) {
            print "allocs ratchet: baseline names no benchmark"
            bad = 1
        }
        exit bad
    }' "$allocs_baseline" "$bench_raw" || { rm -f "$bench_raw"; exit 1; }
    rm -f "$bench_raw"
fi

echo "verify: OK"
