#!/usr/bin/env bash
# Serving-path benchmark: boots a real dfserve on loopback, drives it
# with a fixed-seed dfload pass in closed-loop saturation mode over both
# wire encodings, and emits the resulting BENCH_serve.json artifact —
# per-endpoint p50/p99/p999 latency and throughput for JSON vs
# application/x-df-batch. Unlike the other bench_*.sh scripts this one
# measures the shipped binaries end to end (HTTP, WAL, repair appliers
# included), not an in-process microbenchmark.
#
# The gates at the end hold the binary encoding to what it wins by
# construction at the benchmark batch (128): its observe body is smaller
# than the JSON one, and the observe handler builds its WAL record from
# it by a splice (encodeObserveRecordFromBatch) in at most half the time
# of re-encoding decoded arrays (encodeObserveRecord), timed in process
# by BenchmarkObserveRecord. The end-to-end observe throughputs of both
# encodings and their ratio are recorded in the artifact, ungated: one
# closed-loop pass cannot tell them apart reliably.
#
# Usage: scripts/bench_serve.sh [output.json] [workdir]
#   GATETIME=1000x   iterations per timing of BenchmarkObserveRecord
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"
work="${2:-$(mktemp -d)}"
data="$work/data"
mkdir -p "$data"

go build -o "$work/dfserve" ./cmd/dfserve
go build -o "$work/dfload" ./cmd/dfload

serve_pid=""
cleanup() {
  [[ -n "$serve_pid" ]] && kill -9 "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

"$work/dfserve" -addr 127.0.0.1:0 -data-dir "$data" -fsync batch 2> "$work/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*listening on //p' "$work/serve.log" | head -1)"
  [[ -n "$addr" ]] && break
  sleep 0.05
done
[[ -n "$addr" ]] || { echo "bench_serve: server never listened"; cat "$work/serve.log"; exit 1; }
base="http://$addr"
for _ in $(seq 1 100); do
  curl -sf "$base/healthz" >/dev/null && break
  sleep 0.05
done

# Fixed seed and flags: the synthesized request streams are
# byte-identical across runs, so BENCH_serve.json rows compare across
# PRs. Closed-loop (-rate 0) measures saturation throughput; -encoding
# both runs the identical workload once per wire encoding.
"$work/dfload" -addr "$base" \
  -rate 0 -requests "${REQUESTS:-4000}" -connections 4 \
  -monitors 4 -batch 128 -seed 42 \
  -mix 'observe=0.85,decide=0.1,report=0.05' \
  -encoding both -format json -out "$out"

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "wrote $out"

# Gates: BenchmarkObserveRecord runs five times at a fixed iteration
# count, and the medians of its splice and encode ns/op are compared;
# each case's body-bytes is its wire form's body size at batch 128. The
# observe throughputs come from the artifact, which is indented JSON
# with endpoint/encoding preceding throughput_rps in each result row, so
# a line scanner can pair them up. The awk prints the gate lines on
# standard error and a summary object, which becomes the artifact's
# last key, "binary_gates", on standard output.
go test -run 'xxx' -bench '^BenchmarkObserveRecord$' \
  -benchtime "${GATETIME:-1000x}" -count 5 ./cmd/dfserve >"$work/record_gate.txt"
set +e
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
FNR == NR {
  if ($1 ~ /^BenchmarkObserveRecord\//) {
    name = $1
    sub(/^BenchmarkObserveRecord\//, "", name)
    sub(/-[0-9]+$/, "", name)
    ns[name] = ns[name] " " $3
    bytes[name] = $5 + 0
  }
  next
}
/"endpoint":/  { gsub(/[",]/, "", $2); ep = $2 }
/"encoding":/  { gsub(/[",]/, "", $2); enc = $2 }
/"throughput_rps":/ {
  gsub(/,/, "", $2)
  if (ep == "observe") tput[enc] = $2 + 0
}
END {
  if (!("splice" in ns) || !("encode" in ns) || !("json" in tput) || !("binary" in tput)) {
    print "bench_serve FAILED: missing BenchmarkObserveRecord cases or observe rows for both encodings" > "/dev/stderr"
    exit 1
  }
  splice = median(ns["splice"]); encode = median(ns["encode"])
  printf "{\"observe_throughput_rps\": {\"json\": %.1f, \"binary\": %.1f, \"binary_over_json\": %.4f}, ",
    tput["json"], tput["binary"], tput["binary"] / tput["json"]
  printf "\"body_bytes\": {\"json\": %d, \"binary\": %d}, ", bytes["encode"], bytes["splice"]
  printf "\"wal_record_ns\": {\"encode\": %.1f, \"splice\": %.1f, \"splice_over_encode\": %.4f}}\n",
    encode, splice, splice / encode
  printf "observe throughput: json %.0f rps, binary %.0f rps (%.2fx, not gated)\n",
    tput["json"], tput["binary"], tput["binary"] / tput["json"] > "/dev/stderr"
  bad = 0
  if (bytes["splice"] >= bytes["encode"]) {
    printf "body gate FAILED: binary observe body %d bytes, not below JSON %d bytes\n", bytes["splice"], bytes["encode"] > "/dev/stderr"
    bad = 1
  } else {
    printf "body gate ok: binary observe body %d bytes, JSON %d bytes\n", bytes["splice"], bytes["encode"] > "/dev/stderr"
  }
  if (splice > 0.5 * encode) {
    printf "splice gate FAILED: WAL record splice %.1f ns, more than half the re-encode %.1f ns\n", splice, encode > "/dev/stderr"
    bad = 1
  } else {
    printf "splice gate ok: WAL record splice %.1f ns, %.2fx the re-encode\n", splice, splice / encode > "/dev/stderr"
  }
  exit bad
}' "$work/record_gate.txt" "$out" >"$work/summary.json"
status=$?
set -e
if [[ -s "$work/summary.json" ]]; then
  awk -v summary="$(cat "$work/summary.json")" '
  { lines[NR] = $0 }
  END {
    last = NR
    while (last > 0 && lines[last] !~ /^}/) last--
    for (i = 1; i < last - 1; i++) print lines[i]
    print lines[last - 1] ","
    print "  \"binary_gates\": " summary
    for (i = last; i <= NR; i++) print lines[i]
  }' "$out" >"$work/artifact.json"
  mv "$work/artifact.json" "$out"
fi
exit "$status"
