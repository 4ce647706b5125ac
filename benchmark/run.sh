#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build leaves behind (Go build cache, temporary files,
# the binary) goes under .bench_build/ at the root of the checkout, so
# nothing outside the checkout is written. The program's working
# directory is benchmark/, so result files land in benchmark/results/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/layered-bench" .
exec "$build/layered-bench" "$@"
