#!/usr/bin/env bash
# Builds cmd/pme and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload estimate-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the two binaries and the traced runs' span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the go command's cache, config and temporary files inside the
# checkout, build only from local sources, and use the installed
# toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Turn off the go command's telemetry before its first run: otherwise it
# forks a detached child that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/pme" ./cmd/pme
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -pme "$build/bin/pme" -out "$build/trace" "$@"
