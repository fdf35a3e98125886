#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload journal-fold --seed 3 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included). The harness is its own module
# (perfbench/go.mod) that builds the repository's packages from the
# checkout through a replace directive, so it builds offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
