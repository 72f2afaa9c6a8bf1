#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into .bench_build
# and run it with the arguments given. Everything the build and the run write
# — Go's build cache, the binary, journals, traces — stays inside the checkout
# this is started from (its root): nothing is read from or left in $HOME or
# /tmp.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

go build -o "$build/splash4-benchmark" ./benchmark
exec "$build/splash4-benchmark" "$@"
