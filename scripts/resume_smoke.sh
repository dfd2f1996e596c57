#!/usr/bin/env bash
# resume_smoke.sh — end-to-end check of the crash-safe sweep contract: an
# `experiments -run all -store DIR` sweep interrupted mid-flight and then
# rerun over the same store must serve the completed runs from the store
# and produce final stdout byte-identical to an uninterrupted run.
#
# Two legs, each over a fresh store:
#   SIGINT  — clean cancellation: exit 130 (or 0 if the sweep finished
#             first) and the "interrupted: rerun with -store" hint;
#   kill -9 — no chance to clean up: whatever the store holds (plus any
#             orphaned temp file) is all the rerun gets.
#
# Usage: scripts/resume_smoke.sh [sigint-after-seconds] [kill-after-seconds]
# Env:   PARALLEL (default 4) — engine width for every run.
set -euo pipefail

INT_AFTER=${1:-6}
KILL_AFTER=${2:-8}
PARALLEL=${PARALLEL:-4}
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== build"
go build -o "$work/experiments" ./cmd/experiments

echo "== reference: uninterrupted sweep"
"$work/experiments" -run all -parallel "$PARALLEL" \
    >"$work/ref.out" 2>"$work/ref.err"

# rerun LEG: sweep again over the leg's store; the completed runs must come
# back as store hits and stdout must match the reference byte for byte.
rerun() {
    local leg=$1 store="$work/$1.store"
    echo "   store holds $(find "$store/objects" -name '*.json' | wc -l) entries," \
        "$(find "$store/objects" -name '.tmp-*' | wc -l) orphaned temp files"
    echo "== $leg: rerun over the same store"
    "$work/experiments" -run all -parallel "$PARALLEL" -store "$store" \
        >"$work/$leg.res.out" 2>"$work/$leg.res.err"
    grep '^engine:\|^store:' "$work/$leg.res.err" | sed 's/^/   /'
    if ! grep -q '^store: [1-9][0-9]* hits' "$work/$leg.res.err"; then
        echo "FAIL: $leg rerun served nothing from the store" >&2
        cat "$work/$leg.res.err" >&2
        exit 1
    fi
    if ! cmp -s "$work/ref.out" "$work/$leg.res.out"; then
        echo "FAIL: $leg rerun stdout differs from the uninterrupted reference:" >&2
        diff "$work/ref.out" "$work/$leg.res.out" | head -40 >&2
        exit 1
    fi
    echo "   byte-identical to the reference"
}

echo "== sigint: store-backed sweep, SIGINT after ${INT_AFTER}s"
set +e
"$work/experiments" -run all -parallel "$PARALLEL" -store "$work/sigint.store" \
    >"$work/sigint.out" 2>"$work/sigint.err" &
pid=$!
sleep "$INT_AFTER"
kill -INT "$pid" 2>/dev/null
wait "$pid"
status=$?
set -e
case $status in
130)
    if ! grep -q 'resume later with -store ' "$work/sigint.err" ||
        ! grep -q '^interrupted: rerun with -store ' "$work/sigint.err"; then
        echo "FAIL: interrupted sweep did not name -store in its hints" >&2
        cat "$work/sigint.err" >&2
        exit 1
    fi
    ;;
0) echo "   note: sweep finished before SIGINT landed; the rerun serves everything" ;;
*)
    echo "FAIL: interrupted sweep exited $status (want 130, or 0 if it finished early)" >&2
    cat "$work/sigint.err" >&2
    exit 1
    ;;
esac
rerun sigint

echo "== kill9: store-backed sweep, kill -9 after ${KILL_AFTER}s"
"$work/experiments" -run all -parallel "$PARALLEL" -store "$work/kill9.store" \
    >"$work/kill9.out" 2>"$work/kill9.err" &
pid=$!
sleep "$KILL_AFTER"
if kill -9 "$pid" 2>/dev/null; then
    echo "   killed sweep pid $pid"
else
    echo "   note: sweep finished before kill -9 landed; the rerun serves everything"
fi
{ wait "$pid"; } 2>/dev/null || true
rerun kill9

echo "PASS: SIGINT and kill -9 sweeps resumed from the store with byte-identical stdout"
