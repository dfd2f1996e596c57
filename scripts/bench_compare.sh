#!/usr/bin/env bash
# bench_compare.sh OLD.json NEW.json — the bench-guard gate.
#
# Diffs two benchjson snapshots and fails (exit 1) if any guarded hot-path
# benchmark regressed by more than MAX_REGRESS percent. Two guard classes:
#
#   * Throughput/latency (MATCH): ns/op and every */s metric on the serial
#     hot paths — warp issue, cycle-level and functional mem-instr, backing
#     reads — must not regress. This is the contract of the PR 3/5/8
#     scheduler work: new machinery may not slow the reference path.
#
#   * Allocations (ALLOC_MATCH): B/op and allocs/op on the launch-path
#     benchmarks must not regrow. PR 8 drove the steady-state launch to the
#     arena floor (run shells, workgroups, warps, register files, lowered
#     superblocks all recycled; see DESIGN.md "Hot-path architecture");
#     this guard keeps it there. Small absolute slack (8 objects / 4 KiB)
#     absorbs incidental noise on tiny footprints.
#
# Snapshot protocol (how the checked-in baselines are made):
#
#   1. Quiesce the machine (no concurrent builds or tests).
#   2. `make bench-json BENCHOUT=BENCH_PRn.json` — 2s benchtime, 3 repeats
#      (-count 3), -benchmem, the BENCH selection in the Makefile.
#      benchjson folds the repeats best-of-N per metric, so one noisy
#      scheduling window cannot poison a single benchmark. The first
#      iteration warms every arena, so steady-state numbers dominate
#      automatically; no separate warmup pass is needed.
#   3. Sanity-check against the previous snapshot:
#      `bash scripts/bench_compare.sh BENCH_PRn-1.json BENCH_PRn.json`.
#      Comparisons are only meaningful between snapshots taken on the same
#      machine in the same era — shared hosts drift. If the gate trips on
#      benchmarks the PR did not touch, re-record the baseline from the
#      previous revision (git worktree) back-to-back with the candidate,
#      commit it alongside (e.g. BENCH_PR8_base.json), and point the gate
#      at the pair. On a host whose speed drifts between minutes, record
#      the pair interleaved instead: alternate -count 1 rounds of the
#      bench-json `go test` line on the two revisions and pipe each side's
#      concatenated output into `go run ./cmd/benchjson -o FILE`, which
#      folds the rounds best-of-N (BENCH_PR14_layers*.json, 10 rounds).
#      Cross-machine comparisons are only meaningful for the
#      allocation columns (exact) and ratios, not absolute ns/op.
#   4. Commit the JSON; CI replays this gate with BENCHTIME=1x for smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

OLD=${1:-BENCH_PR6_hot.json}
NEW=${2:-BENCH_PR8.json}
MAX_REGRESS=${MAX_REGRESS:-15}
MATCH=${MATCH:-'BenchmarkWarpIssueThroughput|BenchmarkMemInstrThroughput|BenchmarkFunctionalMemPath|BenchmarkBackingReadUint'}
ALLOC_MATCH=${ALLOC_MATCH:-'BenchmarkWarpIssueThroughput|BenchmarkMemInstrThroughput|BenchmarkSimulatorThroughput|BenchmarkLaunchAllocs'}

if [[ ! -f $OLD ]]; then
    echo "bench_compare: baseline $OLD not found" >&2
    exit 2
fi
if [[ ! -f $NEW ]]; then
    echo "bench_compare: candidate $NEW not found" >&2
    exit 2
fi

exec go run ./cmd/benchjson -old "$OLD" -new "$NEW" \
    -max-regress "$MAX_REGRESS" -match "$MATCH" -alloc-match "$ALLOC_MATCH"
