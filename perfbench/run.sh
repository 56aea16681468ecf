#!/usr/bin/env bash
# Builds the benchmark and the resilience CLI from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mixed-load --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gomod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTELEMETRY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/resilience" ]; then
	echo "perfbench: run from the root of a resilience checkout" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/home"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/resilience" ./cmd/resilience)
exec "$build/perfbench" -cli "$build/resilience" -work-dir "$build/work" -trace-dir "$build/trace" "$@"
