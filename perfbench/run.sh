#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload table5|chaos|coord --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (or $CARGO_TARGET_DIR) in that root: the Go build
# cache, the binary, journals, and traced-run span files.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
out="$out/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
(cd "$root/perfbench" && go build -o "$out/zbench" .) >&2
sha=unknown
if [ -e "$root/.git" ]; then
  sha=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$out/zbench" -out "$out" -git-sha "$sha" "$@"
