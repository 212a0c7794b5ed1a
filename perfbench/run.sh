#!/usr/bin/env bash
# Builds dfserve and the benchmark driver from this checkout, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, binaries, telemetry) stays under
# .bench_build/.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/cmd/dfserve ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/dfserve not found)" >&2
	exit 1
fi
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/dfserve" ./cmd/dfserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dfserve "$out/dfserve" "$@"
