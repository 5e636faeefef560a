#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays in the build directory
# ($CARGO_TARGET_DIR, default .bench_build), Go's caches included.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
