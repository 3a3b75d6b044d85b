#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source into
# .bench_build under the directory it is run from (the repository root)
# and run it with the given arguments. Go's build cache and temporary
# files are kept under .bench_build as well, so that nothing is written
# outside the checkout; `go run ./bench` does the same work with the
# user's own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
go build -o "$build/routersim-bench" ./bench
exec "$build/routersim-bench" "$@"
