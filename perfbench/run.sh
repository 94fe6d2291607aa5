#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays in
# .bench_build under the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
