#!/usr/bin/env bash
# fuzz_smoke.sh — CI gate for the differential kernel fuzzer.
# Runs the generative fuzzer at a fixed seed through the experiments CLI and
# asserts the three invariants the fuzzer PR claims:
#
#   1. soundness: zero oracle disagreements between the static analyzer, the
#      runtime BCU, and generator ground truth (any finding makes the
#      experiment exit non-zero, with the shrunk reproducer in the message)
#   2. determinism: stdout is byte-identical across -parallel widths and
#      across repeat runs at the same seed
#   3. race freedom: the full run passes under the race detector
#   4. superblock equivalence: a 200-kernel leg at -parallel 1 is
#      byte-identical with superblock stepping forced off via
#      GPUSHIELD_NO_SUPERBLOCKS, so the pre-decoded fast path (PR 8) is
#      fuzzed against reference single-stepping on every CI run
#   5. memory-plan equivalence: the same leg repeated with the warp
#      memory-plan / transaction-check path forced off via
#      GPUSHIELD_NO_MEMPLANS, so the planned AGU + verdict cache (PR 10)
#      is fuzzed against the reference per-lane memory path every CI run
#
# Usage: scripts/fuzz_smoke.sh
# Env:   SEED (default 1), COUNT (default 500) — COUNT >= 500 keeps this an
#        actual soundness sweep, not a token one. SB_COUNT (default 200)
#        sizes the superblock and memory-plan differential legs.
set -euo pipefail

SEED=${SEED:-1}
COUNT=${COUNT:-500}
SB_COUNT=${SB_COUNT:-200}
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== build"
go build -o "$work/experiments" ./cmd/experiments

echo "== fuzz $COUNT kernels, seed $SEED, -parallel 1"
"$work/experiments" -run fuzz -seed "$SEED" -fuzz-count "$COUNT" \
    -parallel 1 >"$work/p1.out"

echo "== fuzz again at -parallel 8"
"$work/experiments" -run fuzz -seed "$SEED" -fuzz-count "$COUNT" \
    -parallel 8 >"$work/p8.out"

echo "== determinism: diff the two runs"
if ! diff -u "$work/p1.out" "$work/p8.out" >&2; then
    echo "FAIL: report differs between -parallel 1 and -parallel 8" >&2
    exit 1
fi

echo "== superblock differential: $SB_COUNT kernels, -parallel 1"
"$work/experiments" -run fuzz -seed "$SEED" -fuzz-count "$SB_COUNT" \
    -parallel 1 >"$work/sb_on.out"
GPUSHIELD_NO_SUPERBLOCKS=1 "$work/experiments" -run fuzz -seed "$SEED" \
    -fuzz-count "$SB_COUNT" -parallel 1 >"$work/sb_off.out"
if ! diff -u "$work/sb_off.out" "$work/sb_on.out" >&2; then
    echo "FAIL: superblock path diverges from single-step reference" >&2
    exit 1
fi

# Same shape for the PR 10 memory path: plans + transaction-granularity
# checking + verdict cache on (default) vs the reference per-lane path.
# sb_on.out doubles as the plans-on run — same seed, count, and width.
echo "== memory-plan differential: $SB_COUNT kernels, -parallel 1"
GPUSHIELD_NO_MEMPLANS=1 "$work/experiments" -run fuzz -seed "$SEED" \
    -fuzz-count "$SB_COUNT" -parallel 1 >"$work/mp_off.out"
if ! diff -u "$work/mp_off.out" "$work/sb_on.out" >&2; then
    echo "FAIL: memory-plan path diverges from per-lane reference" >&2
    exit 1
fi

echo "== race detector pass (-parallel 4)"
go run -race ./cmd/experiments -run fuzz -seed "$SEED" -fuzz-count "$COUNT" \
    -parallel 4 >/dev/null

echo "PASS: $COUNT kernels at seed $SEED, zero findings, deterministic across widths, superblock and memory-plan paths equivalent on $SB_COUNT"
