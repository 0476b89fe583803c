#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind goes under .bench_build/, so the
# benchmark reads and writes only inside the checkout it is run from.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
go build -C bench -o "$out/dlfs-bench" .
exec "$out/dlfs-bench" "$@"
