#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, keeping
# the Go build cache and the binary under .bench_build/ so that nothing is
# read or written outside the checkout. Arguments go to the benchmark:
#
#   bash bench/run.sh --workload flow_churn --seed 7 --seconds 10 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/owbench" ./bench >&2
exec "$build/owbench" "$@"
