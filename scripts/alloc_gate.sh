#!/usr/bin/env bash
# Alloc gate: asserts the //df:hotpath zero-allocation contract at the
# benchmark layer. Every BenchmarkHotPath* benchmark (one per annotated
# hot path: core.Epsilon, core.EvalMetrics with its RateExtrema.Scan,
# stream Monitor.ObserveBatch, the stream incremental-ε delta-apply path,
# repair Applier.ApplyBatch, dfserve's binary and JSON batch decodes)
# must report exactly 0 allocs/op in
# -benchmem output; a single allocation per op on the serving path turns
# into GC pressure at stream rate. The static half of the same contract
# is the dfvet hotpath analyzer — this gate catches what escapes analysis
# (allocations introduced inside callees of an annotated function).
#
# Usage:
#   scripts/alloc_gate.sh                  # run the benchmarks, then gate
#   scripts/alloc_gate.sh bench_smoke.txt  # gate an existing -benchmem log
#
# The second form lets CI reuse the bench smoke step's output.
set -euo pipefail

cd "$(dirname "$0")/.."
input="${1:-}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
if [[ -n "$input" ]]; then
  cp "$input" "$raw"
else
  go test -run 'xxx' -bench 'BenchmarkHotPath' -benchmem -benchtime 100x ./... | tee "$raw"
fi

# Expected hot-path benchmarks; each annotated function has exactly one.
expected=7

awk -v expected="$expected" '
/^BenchmarkHotPath/ {
  seen++
  ok = 0
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "allocs/op") {
      ok = 1
      if ($i + 0 != 0) {
        printf "alloc gate FAILED: %s reports %s allocs/op, want 0\n", $1, $i
        bad++
      }
    }
  }
  if (!ok) {
    printf "alloc gate FAILED: %s has no allocs/op column (run with -benchmem)\n", $1
    bad++
  }
}
END {
  if (seen < expected) {
    printf "alloc gate FAILED: found %d BenchmarkHotPath* results, want %d (did the bench pattern or package list narrow?)\n", seen, expected
    exit 1
  }
  if (bad > 0) exit 1
  printf "alloc gate ok: %d hot-path benchmarks at 0 allocs/op\n", seen
}' "$raw"
