#!/usr/bin/env bash
# Builds the benchmark inside the checkout (.bench_build/, Go's caches too)
# and runs it with the arguments given: see bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/go-tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/lesslog-bench" .
exec "$build/lesslog-bench" "$@"
