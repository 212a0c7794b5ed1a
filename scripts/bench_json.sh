#!/usr/bin/env bash
# Emits `go test -bench` results as a flat JSON array, one object per
# benchmark whose name matches a pattern, so each layer's performance
# trajectory is tracked across PRs (CI uploads every BENCH_*.json as an
# artifact):
#   {"name": ..., "iterations": N, "ns_per_op": ..., "bytes_per_op": ...,
#    "allocs_per_op": ...}
#
# Usage:
#   scripts/bench_json.sh output.json pattern package              # runs the benchmarks
#   scripts/bench_json.sh output.json pattern package existing.txt # parses a prior run
#   BENCHTIME=5x scripts/bench_json.sh ...                         # more iterations
#
# The second form lets CI reuse the smoke step's `go test -bench` output
# instead of running the benchmarks twice; the package is then unused.
# The artifacts CI writes:
#   BENCH_resample.json 'BenchmarkEpsilonBootstrap|BenchmarkMultinomialDraw|BenchmarkEpsilonCredible|BenchmarkBootstrap$|BenchmarkBayesPosterior' .
#   BENCH_audit.json    'BenchmarkAuditor|BenchmarkReportRenderJSON' .
#   BENCH_metrics.json  'BenchmarkMetricAudit' .
#   BENCH_repair.json   'BenchmarkRepairPlan|BenchmarkApplyBatch' .
#   BENCH_wal.json      'BenchmarkWAL' ./internal/wal
#   BENCH_stream.json   through scripts/bench_stream.sh, which adds gates
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 output.json pattern package [existing.txt]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
out="$1"
pattern="$2"
pkg="$3"
input="${4:-}"
benchtime="${BENCHTIME:-1x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
if [[ -n "$input" ]]; then
  cp "$input" "$raw"
else
  go test -run 'xxx' -bench "$pattern" -benchmem -benchtime "$benchtime" "$pkg" | tee "$raw"
fi

awk -v pat="^(${pattern})" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
  # Strip the -GOMAXPROCS suffix Go appends on multi-core hosts so
  # names join across runners with different core counts.
  sub(/-[0-9]+$/, "", name)
  if (name !~ pat) next
  for (i = 3; i <= NF; i++) {
    if ($(i+1) == "ns/op")     ns = $i
    if ($(i+1) == "B/op")      bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
  }
  if (ns == "") next
  if (!first) printf(",\n")
  first = 0
  printf("  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
  if (bytes != "")  printf(", \"bytes_per_op\": %s", bytes)
  if (allocs != "") printf(", \"allocs_per_op\": %s", allocs)
  printf("}")
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"
