#!/usr/bin/env bash
# BENCHMARK.json's "command": builds the benchmark from source inside
# the checkout and runs it with the arguments given. Run it from the
# repository root: bash benchmark/run.sh --workload bulk_clean --seed 1
# --seconds 12 --trace 0. Everything it writes — Go's build cache and
# temporary files included — stays under the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
