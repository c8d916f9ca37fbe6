#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build artifact and cache stays under .bench_build in the current
# directory.
set -euo pipefail
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$build"
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
