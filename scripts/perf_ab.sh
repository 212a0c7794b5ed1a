#!/usr/bin/env bash
# A/B protocol for the repository benchmark (BENCHMARK.json). Runs
# perfbench/run.sh in two copies of the repository, the committed tree
# of <rev> (from git archive) and the working tree as it is now, each
# with its own build under run.sh's environment. Pair i runs both sides
# with seed <first-seed>+i, alternating which side goes first, and
# writes one JSON verdict:
#
#   - every run's result line, with its pair, side, order and seed;
#   - per end-to-end metric: both sides' medians and quartiles, the base
#     side's IQR and IQR/median, the change's wins, ties and losses, the
#     gap between the medians against the base IQR, the median ratio,
#     whether the change stays within BENCHMARK.json's bound, and whether
#     it meets a gain claim (wins in at least nine tenths of the pairs and
#     a gap larger than the base IQR).
#
# Usage, from anywhere inside the repository:
#
#   scripts/perf_ab.sh <rev> <workload> <pairs> <seconds> <first-seed>
#   scripts/perf_ab.sh HEAD audit 10 30 101
#
# The verdict goes to $PERF_AB_OUT (default BENCH_ab_<workload>.json in
# the repository root) and to standard output; each run's standard error
# goes next to it in <verdict>.log. Copies and builds live under
# .bench_build/ab. Needs git, tar and jq. Exits 1 when a run fails,
# reads correct: false, or counts failed requests.
set -euo pipefail

if [[ $# -ne 5 ]]; then
	echo "usage: $0 <rev> <workload> <pairs> <seconds> <first-seed>" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 first_seed=$5
for n in "$pairs" "$seconds" "$first_seed"; do
	if [[ ! $n =~ ^[0-9]+$ ]]; then
		echo "perf_ab: <pairs>, <seconds> and <first-seed> must be non-negative integers" >&2
		exit 2
	fi
done
if ((pairs < 1 || seconds < 1)); then
	echo "perf_ab: need at least one pair of at least one second" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$rev^{commit}")
out=${PERF_AB_OUT:-$root/BENCH_ab_$workload.json}
log=$out.log
work=$root/.bench_build/ab
rm -rf "$work"
mkdir -p "$work/base" "$work/head"
: >"$log"

# The base side is the committed tree of <rev>; the change side is a
# copy of the working tree (tracked and untracked files that git does
# not ignore), so edits made while the pairs run do not reach them.
git archive "$commit" | tar -x -C "$work/base"
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do
		if [[ -e $f ]]; then printf '%s\0' "$f"; fi
	done |
	tar --null -T - -cf - | tar -x -C "$work/head"

runs=$work/runs.jsonl
: >"$runs"

# run_side <side> <pair> <order> <seed> appends one run to $runs.
run_side() {
	local side=$1 pair=$2 order=$3 seed=$4 line
	echo "perf_ab: pair $pair, $side, seed $seed" >&2
	echo "== pair $pair $side seed $seed" >>"$log"
	if ! line=$(cd "$work/$side" &&
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$log" | tail -n 1); then
		echo "perf_ab: the $side run of pair $pair failed (see $log)" >&2
		exit 1
	fi
	if ! jq -e . >/dev/null 2>&1 <<<"$line"; then
		echo "perf_ab: the $side run of pair $pair printed no result (see $log)" >&2
		exit 1
	fi
	jq -c --arg side "$side" --argjson pair "$pair" --argjson order "$order" --argjson seed "$seed" \
		'{pair: $pair, side: $side, order: $order, seed: $seed, result: .}' <<<"$line" >>"$runs"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((first_seed + i))
	if ((i % 2 == 0)); then
		run_side base "$i" 0 "$seed"
		run_side head "$i" 1 "$seed"
	else
		run_side head "$i" 0 "$seed"
		run_side base "$i" 1 "$seed"
	fi
done

jq -s \
	--slurpfile bench "$root/BENCHMARK.json" \
	--arg rev "$rev" --arg commit "$commit" \
	--arg head "$(git describe --always --dirty)" \
	--arg workload "$workload" \
	--argjson pairs "$pairs" --argjson seconds "$seconds" --argjson first_seed "$first_seed" '
# q(p) is the p-quantile of an array, interpolating linearly between
# order statistics.
def q(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $lo
	| $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
def summary: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
. as $runs
| def values(side; m): [$runs[] | select(.side == side) | {pair, v: .result.metrics[m].value}] | sort_by(.pair) | map(.v);
{
	base: {rev: $rev, commit: $commit},
	head: $head,
	workload: $workload,
	pairs: $pairs,
	seconds: $seconds,
	seeds: [range($pairs) | . + $first_seed],
	correct: all($runs[]; .result.correct == true and .result.failed == 0),
	metrics: [
		$bench[0].end_to_end[] as $m
		| values("base"; $m.name) as $b
		| values("head"; $m.name) as $h
		| ($b | summary) as $bs
		| ($h | summary) as $hs
		| ($bs.q3 - $bs.q1) as $iqr
		| (if $m.better == "lower" then 1 else -1 end) as $sign
		| ([range($pairs) | ($b[.] - $h[.]) * $sign]) as $d
		| (($bs.median - $hs.median) * $sign) as $gap
		| {
			name: $m.name,
			unit: $m.unit,
			better: $m.better,
			bound: $m.bound,
			base: $bs,
			head: $hs,
			base_iqr: $iqr,
			base_iqr_over_median: (if $bs.median != 0 then $iqr / $bs.median else null end),
			ratio: (if $bs.median != 0 then $hs.median / $bs.median else null end),
			wins: ([$d[] | select(. > 0)] | length),
			ties: ([$d[] | select(. == 0)] | length),
			losses: ([$d[] | select(. < 0)] | length),
			gap: $gap,
			gap_over_iqr: (if $iqr > 0 then $gap / $iqr else null end),
			within_bound: (if $m.better == "lower"
				then $hs.median <= $bs.median * (1 + $m.bound)
				else $hs.median >= $bs.median * (1 - $m.bound) end),
			claim_met: (([$d[] | select(. > 0)] | length) * 10 >= $pairs * 9 and $gap > $iqr)
		}
	],
	runs: $runs
}' "$runs" >"$out"

cat "$out"
if [[ $(jq -r .correct "$out") != true ]]; then
	echo "perf_ab: a run read correct: false or counted failed requests" >&2
	exit 1
fi
