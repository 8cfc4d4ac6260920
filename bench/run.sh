#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: bash bench/run.sh --workload flood_plain_1n --seed 1 --seconds 20 --trace 0
# Everything it writes stays under .bench_build/ and bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
