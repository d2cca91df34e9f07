#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see perfbench/README.md). Run from the root of the repository:
#
#   bash perfbench/run.sh --workload batch-large --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
