#!/usr/bin/env bash
# Entry point of the benchmark. Builds the harness from source into
# .bench_build/ at the root of the checkout, then runs it from that root:
#
#   bash bench/run.sh                      all four workloads, every metric
#   bash bench/run.sh -quick               smoke run
#   bash bench/run.sh -compare a.json b.json
#   bash bench/run.sh --workload pp4-small --seed 3 --seconds 10 --trace 0
#
# The Go build cache and temporary files are kept under .bench_build/ too, so
# that a run writes nothing outside its checkout.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$src")"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
mkdir -p "$GOCACHE" "$GOTMPDIR"
(cd "$src" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -src "$(basename "$src")" "$@"
