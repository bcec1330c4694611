#!/usr/bin/env bash
# Gate a bench's events/sec against the same bench built from a base
# commit on the same machine.
#
# Usage:
#   ci/perf_vs_base.sh BASE_SHA TARGET RECORD.json BASELINE.json -- ARGS...
#
# RECORD.json is the change's --json record of `TARGET ARGS...`. This
# script builds TARGET from BASE_SHA (Release, into build-base/), runs
# it with the same ARGS plus --json base_record.json, and hands the
# base's events/sec to ci/check_perf.py as PERF_BASELINE_OVERRIDE, so
# the 15% bound compares two runs on one host instead of a number
# recorded on another. BASELINE.json stays the recorded reference: it
# is the gate when there is no base to build (BASE_SHA empty, all
# zeros, or not in the clone).
set -euo pipefail

base=$1 target=$2 record=$3 baseline=$4
shift 4
if [[ "${1-}" == -- ]]; then
    shift
fi

if [[ -z "$base" || "$base" =~ ^0+$ ]] ||
    ! git cat-file -e "$base^{commit}" 2>/dev/null; then
    echo "no base commit to build; gating against $baseline"
    exec python3 ci/check_perf.py "$record" "$baseline"
fi

rm -rf base-src build-base
mkdir base-src
git archive "$base" | tar -x -C base-src
cmake -S base-src -B build-base -G Ninja -DCMAKE_BUILD_TYPE=Release \
    > /dev/null
cmake --build build-base --target "$target"
"build-base/bench/$target" "$@" --json base_record.json > /dev/null

reference=$(python3 -c \
    'import json, sys; print(json.load(open(sys.argv[1]))["events_per_sec"])' \
    base_record.json)
echo "base ${base:0:12}: $reference events/sec on this runner"
PERF_BASELINE_OVERRIDE=$reference \
    exec python3 ci/check_perf.py "$record" "$baseline"
