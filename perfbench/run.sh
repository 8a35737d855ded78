#!/usr/bin/env bash
# Builds the cfpqd end-to-end benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary go to .bench_build/ in that root; the benchmark itself keeps its
# data directories and span dumps there too.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
