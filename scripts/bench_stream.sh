#!/usr/bin/env bash
# Emits the streaming-engine benchmark results as BENCH_stream.json so
# the concurrent-ingest trajectory (sharded observe throughput, serial
# and parallel; snapshot/report latency) is tracked across PRs next to
# BENCH_resample.json and BENCH_audit.json.
#
# Usage:
#   scripts/bench_stream.sh [output.json]            # runs the benchmarks
#   scripts/bench_stream.sh output.json existing.txt # parses a prior run
#   BENCHTIME=5x scripts/bench_stream.sh             # more iterations
#
# The second form lets CI reuse the smoke step's `go test -bench` output
# instead of running the benchmarks twice; scripts/bench_json.sh writes
# the JSON in either case. The gates always re-time their benchmark.
#
# The acceptance comparisons are BenchmarkMonitorObserveParallel
# (sharded-parallel vs sharded-serial ns/op on a multi-core host;
# single-core hosts show no parallel win) and
# BenchmarkWatchObserveBatchChecked, whose incremental checked-ingest
# path this script gates three ways: ≥ 5× faster than the retained
# snapshot-recompute baseline (ε only, batch 64); with four metric
# limits armed, at most 2× the ε-only check (batch 64); and with the
# limits, faster than CheckFull with the same limits (batch 1,024).
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_stream.json}"
input="${2:-}"
pattern='BenchmarkMonitorObserve|BenchmarkMonitorSnapshot|BenchmarkWatchObserveBatchChecked'

scripts/bench_json.sh "$out" "$pattern" . ${input:+"$input"}

# Incremental-check gates. -benchtime 1x is too noisy to judge a ratio,
# so the gates re-time the benchmark at a fixed iteration count, five
# times, and compare the median ns/op of each case (a single
# few-millisecond pass of a ~3 µs op swings by ±50% on a shared host).
#   1. speedup: the ε-only per-batch checked ingest must be at least 5×
#      faster than the retained full-recompute baseline.
#   2. limits: arming perfbench's four metric limits may at most double
#      the cost of the ε-only incremental check at batch 64 — the limits
#      are judged from the extrema the ε check already keeps.
#   3. limits at batch 1,024: the incremental check with the limits must
#      beat CheckFull with the same limits on an identical watch.
go test -run 'xxx' -bench 'BenchmarkWatchObserveBatchChecked' \
  -benchtime "${GATETIME:-2000x}" -count 5 . |
awk '
function median(list,    v, n, i, j, x) {
  n = split(list, v, " ")
  for (i = 2; i <= n; i++) {
    x = v[i] + 0
    for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j + 1] = v[j]
    v[j + 1] = x
  }
  return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
/^BenchmarkWatchObserveBatchChecked\// {
  name = $1
  sub(/^BenchmarkWatchObserveBatchChecked\//, "", name)
  sub(/-[0-9]+$/, "", name)
  ns[name] = ns[name] " " $3
}
END {
  split("incremental snapshot limits/batch=64/incremental limits/batch=1024/incremental limits/batch=1024/snapshot", want, " ")
  for (i in want) {
    if (!(want[i] in ns)) {
      printf "speedup gate FAILED: case %s missing from output\n", want[i]
      exit 1
    }
  }
  inc = median(ns["incremental"]); snap = median(ns["snapshot"])
  lim64 = median(ns["limits/batch=64/incremental"])
  lim1k = median(ns["limits/batch=1024/incremental"]); full1k = median(ns["limits/batch=1024/snapshot"])
  bad = 0
  ratio = snap / inc
  if (ratio < 5) {
    printf "speedup gate FAILED: snapshot/incremental = %.2fx, want >= 5x (incremental %s ns/op, snapshot %s ns/op)\n", ratio, inc, snap
    bad = 1
  } else {
    printf "speedup gate ok: incremental check %.1fx faster than snapshot recompute\n", ratio
  }
  ratio = lim64 / inc
  if (ratio > 2) {
    printf "limits gate FAILED: batch 64 check with metric limits = %.2fx the epsilon-only check, want <= 2x (%s vs %s ns/op)\n", ratio, lim64, inc
    bad = 1
  } else {
    printf "limits gate ok: batch 64 check with metric limits at %.2fx the epsilon-only check\n", ratio
  }
  if (lim1k >= full1k) {
    printf "limits gate FAILED: batch 1024 incremental check with limits %s ns/op, not below CheckFull with limits %s ns/op\n", lim1k, full1k
    bad = 1
  } else {
    printf "limits gate ok: batch 1024 incremental check with limits %.1fx faster than CheckFull\n", full1k / lim1k
  }
  exit bad
}'
