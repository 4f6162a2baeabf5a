#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
# Every file the build or the run writes lands under .bench_build/ in the
# current directory, which must be the root of the checkout:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
