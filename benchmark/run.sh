#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout: bash benchmark/run.sh [flags].
# Everything the build writes (Go build cache included) stays under
# .bench_build in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/smpss-benchmark" .)
exec "$build/smpss-benchmark" "$@"
