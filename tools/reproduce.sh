#!/bin/sh
# Reproduce every table and figure: build, test, then run all benches,
# teeing outputs to test_output.txt / bench_output.txt at the repo root.
#
#   tools/reproduce.sh             # scaled disk (~1 minute of benches)
#   tools/reproduce.sh --jobs 8    # fan sweep points across 8 workers
#   tools/reproduce.sh --jobs 0    # one worker per hardware thread
#   PD_FULL=1 tools/reproduce.sh   # paper-scale disk (much longer)
#
# --jobs is passed through to every bench driver; per-seed results are
# bit-identical whatever the worker count (see src/harness/), so the
# teed bench_output.txt does not depend on it.
set -e
cd "$(dirname "$0")/.."

JOBS_ARGS=""
while [ $# -gt 0 ]; do
    case "$1" in
    --jobs)
        JOBS_ARGS="--jobs $2"
        shift 2
        ;;
    --jobs=*)
        JOBS_ARGS="--jobs ${1#--jobs=}"
        shift
        ;;
    *)
        echo "usage: tools/reproduce.sh [--jobs N]" >&2
        exit 1
        ;;
    esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    case "$(basename "$b")" in
    bench_mapping | bench_event_queue)
        # google-benchmark microbenches: no sweep, no --jobs.
        echo "=== $b ==="
        "$b"
        ;;
    fig8_recon_single)
        # Figures 8-1/8-2 (one reconstruction process), then Figures
        # 8-3/8-4 (eight-way parallel reconstruction).
        echo "=== $b ==="
        # shellcheck disable=SC2086
        "$b" $JOBS_ARGS
        echo "=== $b --processes 8 ==="
        # shellcheck disable=SC2086
        "$b" --processes 8 $JOBS_ARGS
        ;;
    *)
        echo "=== $b ==="
        # shellcheck disable=SC2086
        "$b" $JOBS_ARGS
        ;;
    esac
done 2>&1 | tee bench_output.txt
