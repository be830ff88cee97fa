#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (binary, Go caches, temp files) and bench/out/ (results,
# traces, scratch device directories).
#
#   bash bench/run.sh [flags]      see bench/README.md, or -h
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/mlvc-perfbench" .)
exec "$build/mlvc-perfbench" "$@"
