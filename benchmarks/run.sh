#!/usr/bin/env bash
# Builds cograperf from source into .bench_build/ (ignored by git) and
# runs it with the arguments given. This is the command BENCHMARK.json
# names; run it from the repository root:
#
#   bash benchmarks/run.sh --workload steady_fleet --seed 1 --seconds 24 --trace 0
#
# The Go build cache is kept inside .bench_build/ too, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C "$here/cograperf" -o "$build/cograperf" .
exec "$build/cograperf" "$@"
