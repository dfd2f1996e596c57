#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
# The build cache, temporary files and the binary stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
(cd perfbench && GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
