#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout's
# source, keeping the binary, the Go build cache and temporary files inside
# benchmark/out/.build (benchmark/.gitignore ignores out/; the dot keeps
# `./...` patterns out of it), then runs `benchmark run` with the driver's
# arguments (--workload, --seed, --seconds, --trace). The first call in a
# checkout compiles everything; later calls reuse the cache.
#
# By hand, `go run ./benchmark run` does the same with the usual Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/helios-benchmark" ./benchmark
exec "$build/helios-benchmark" run "$@"
