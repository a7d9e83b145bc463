#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files and binary stay in .bench_build/ at
# the checkout root. Without the engine's sources beside perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
