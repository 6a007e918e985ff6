#!/usr/bin/env bash
# Benchmark smoke: run the repo's one perf gate (benchmarks/cograperf,
# BENCHMARK.json) briefly on three workloads, and fail when a run does
# (ops_failed != 0 exits non-zero) or when its allocs_per_event reads
# above the workload's limit. That metric is a count — it repeats to
# < 1 % on any runner — so this is not a timing gate: the timings the
# runs print are not looked at.
#
#   steady_fleet        LIMIT 3    window turnover on a warm engine
#                                  allocates only the result rows (≈ 0.14
#                                  per event); a change that builds window
#                                  state afresh again reads ≈ 15.
#   served_tenants      LIMIT 0.5  both server.Decoder routes end to end: a
#                                  pipelined TCP connection and an HTTP
#                                  JSON tenant through an in-process cograd
#                                  (≈ 0.13; 1.88 while JSON bodies still
#                                  went through encoding/json).
#   durable_disordered  LIMIT 2.8  the one gated path through worker
#                                  goroutines, Snapshot and Restore: 8
#                                  subscriptions drained after every frame
#                                  over 2 workers (≈ 2.45; 3.03 while each
#                                  Drain paid a control round trip per
#                                  worker and regrew its result buffers).
#
# Run from the repo root.
set -euo pipefail

smoke() {
  local workload=$1 limit=$2 out allocs
  out=$(bash benchmarks/run.sh --workload "$workload" --seed 1 --seconds 6 --trace 0)
  printf '%s\n' "$out"
  allocs=$(printf '%s\n' "$out" | grep '^{' | tail -n 1 |
    sed -n 's/.*"allocs_per_event":{"value":\([0-9.eE+-]*\).*/\1/p')
  if [ -z "$allocs" ]; then
    echo "bench_smoke: $workload: no allocs_per_event in the JSON line" >&2
    exit 1
  fi
  if ! awk -v a="$allocs" -v l="$limit" 'BEGIN { exit !(a + 0 <= l + 0) }'; then
    echo "bench_smoke: $workload allocs_per_event $allocs > $limit" >&2
    exit 1
  fi
  echo "bench_smoke: $workload allocs_per_event $allocs <= $limit"
}

smoke steady_fleet 3
smoke served_tenants 0.5
smoke durable_disordered 2.8
