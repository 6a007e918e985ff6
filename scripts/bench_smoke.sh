#!/usr/bin/env bash
# Benchmark smoke: run the repo's one perf gate (benchmarks/cograperf,
# BENCHMARK.json) once, briefly, on the steady fleet, and fail when the
# run does (ops_failed != 0 exits non-zero) or when allocs_per_event
# reads above LIMIT. That metric is a count — it repeats to < 1 % on any
# runner — so this is not a timing gate: the timings the run prints are
# not looked at. Window turnover on a warm engine allocates only the
# result rows (≈ 0.15 per event here); a change that builds window state
# afresh again reads ≈ 15. Run from the repo root.
set -euo pipefail

LIMIT=3

out=$(bash benchmarks/run.sh --workload steady_fleet --seed 1 --seconds 6 --trace 0)
printf '%s\n' "$out"
allocs=$(printf '%s\n' "$out" | grep '^{' | tail -n 1 |
  sed -n 's/.*"allocs_per_event":{"value":\([0-9.eE+-]*\).*/\1/p')
if [ -z "$allocs" ]; then
  echo "bench_smoke: no allocs_per_event in the JSON line" >&2
  exit 1
fi
if ! awk -v a="$allocs" -v l="$LIMIT" 'BEGIN { exit !(a + 0 <= l + 0) }'; then
  echo "bench_smoke: steady_fleet allocs_per_event $allocs > $LIMIT" >&2
  exit 1
fi
echo "bench_smoke: steady_fleet allocs_per_event $allocs <= $LIMIT"
