#!/usr/bin/env bash
# Benchmark smoke: run the repo's one perf gate (benchmarks/cograperf,
# BENCHMARK.json) briefly on four workloads, and fail when a run does
# (ops_failed != 0 exits non-zero) or when its allocs_per_event or its
# alloc_bytes_per_event reads above the workload's limit. Both metrics
# are counts — they repeat to < 1 % on any runner — so this is not a
# timing gate: the timings the runs print are not looked at. Each limit
# sits about 5 % over what the workload reads.
#
#   steady_fleet        ALLOCS 0.123  window turnover on a warm engine
#                       BYTES 122     allocates only the result rows (≈ 0.117
#                                     allocations, ≈ 116 B per event; 0.141
#                                     allocations while a cold
#                                     sub-aggregator allocated each table
#                                     entry, staged update and their
#                                     auxiliaries apart; 142 B while every
#                                     value carried a copy of its spec); a
#                                     change that builds window state afresh
#                                     again reads ≈ 15 allocations.
#   served_tenants      ALLOCS 0.117  both server.Decoder routes end to end: a
#                       BYTES 108     pipelined TCP connection and an HTTP
#                                     JSON tenant through an in-process cograd
#                                     (≈ 0.111 allocations, ≈ 103 B; 0.119
#                                     with per-entry table storage, 1.88
#                                     while JSON bodies still went through
#                                     encoding/json).
#   durable_disordered  ALLOCS 1.84   the one gated path through worker
#                       BYTES 694     goroutines, Snapshot and Restore: 8
#                                     subscriptions drained after every frame
#                                     over 2 workers (≈ 1.76 allocations,
#                                     ≈ 659 B; 2.35 allocations with
#                                     per-entry table storage, 975 B while
#                                     values copied their specs and each
#                                     drain regrew the workers' result
#                                     buffers, 3.03 allocations while each
#                                     Drain paid a control round trip per
#                                     worker).
#   burst_kernel        ALLOCS 0.0062 the only workload whose pattern-grained
#                       BYTES 1.81    and contiguous queries reach the run
#                                     kernels: dispatch hands each run of
#                                     consecutive same-type events to every
#                                     engine without allocating (≈ 0.0059
#                                     allocations, ≈ 1.72 B; 0.0114 and
#                                     1.83 B with per-entry table storage;
#                                     one allocation per run would read
#                                     ≈ 0.018).
#
# Run from the repo root.
set -euo pipefail

# metric prints the value of one metric of a cograperf JSON line.
metric() {
  sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p"
}

# check fails the smoke when a metric is missing or above its limit.
check() {
  local workload=$1 name=$2 value=$3 limit=$4
  if [ -z "$value" ]; then
    echo "bench_smoke: $workload: no $name in the JSON line" >&2
    exit 1
  fi
  if ! awk -v a="$value" -v l="$limit" 'BEGIN { exit !(a + 0 <= l + 0) }'; then
    echo "bench_smoke: $workload $name $value > $limit" >&2
    exit 1
  fi
  echo "bench_smoke: $workload $name $value <= $limit"
}

smoke() {
  local workload=$1 allocs_limit=$2 bytes_limit=$3 out line
  out=$(bash benchmarks/run.sh --workload "$workload" --seed 1 --seconds 6 --trace 0)
  printf '%s\n' "$out"
  line=$(printf '%s\n' "$out" | grep '^{' | tail -n 1)
  check "$workload" allocs_per_event "$(printf '%s\n' "$line" | metric allocs_per_event)" "$allocs_limit"
  check "$workload" alloc_bytes_per_event "$(printf '%s\n' "$line" | metric alloc_bytes_per_event)" "$bytes_limit"
}

smoke steady_fleet 0.123 122
smoke served_tenants 0.117 108
smoke durable_disordered 1.84 694
smoke burst_kernel 0.0062 1.81
