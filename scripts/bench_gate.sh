#!/usr/bin/env bash
# Bench-regression gate: compares the freshly measured BENCH_edm.json
# (written by the check.sh steps that ran before this script) against the
# copy committed at HEAD, and fails if any hot-path cell lost more than
# 25 % throughput (fresh ops_per_sec < 0.75 x committed).
#
# Only the hot cells below gate; the remaining cells are informational
# (they cover tiny fixtures whose wall times are noise-dominated). The
# threshold table lives in EXPERIMENTS.md; override the ratio with
# EDM_BENCH_MIN_RATIO for local experiments. CI runs this stage
# non-blocking (continue-on-error): shared runners jitter well past 25 %
# under noisy neighbours, so a red bench stage is a prompt to re-run and
# investigate, not an automatic merge blocker.
set -euo pipefail
cd "$(dirname "$0")/.."

HOT_CELLS="ftl_micro_span event_queue_calendar spec_check serve_ingest"
MIN_RATIO="${EDM_BENCH_MIN_RATIO:-0.75}"

fresh="BENCH_edm.json"
if [ ! -f "$fresh" ]; then
    echo "bench gate: $fresh missing — run the check.sh bench-producing steps first" >&2
    exit 2
fi
baseline="$(mktemp)"
trap 'rm -f "$baseline"' EXIT
if ! git show HEAD:BENCH_edm.json > "$baseline" 2> /dev/null; then
    echo "bench gate: no committed BENCH_edm.json at HEAD; nothing to compare"
    exit 0
fi

# BENCH_edm.json keeps one cell object per line, so a line-oriented awk
# lookup is exact: find the line whose "name" field matches, pull its
# ops_per_sec value.
cell_ops() { # <file> <cell-name> -> ops_per_sec (empty if absent)
    awk -v name="$2" -F'"' '
        $2 == "name" && $4 == name && match($0, /"ops_per_sec": *[0-9.eE+-]+/) {
            v = substr($0, RSTART, RLENGTH)
            sub(/.*: */, "", v)
            print v
            exit
        }' "$1"
}

fail=0
echo "bench gate: fresh vs HEAD BENCH_edm.json, min ratio $MIN_RATIO"
printf '%-24s %14s %14s %7s  %s\n' "cell" "committed" "fresh" "ratio" "gate"
for cell in $HOT_CELLS; do
    old="$(cell_ops "$baseline" "$cell")"
    new="$(cell_ops "$fresh" "$cell")"
    if [ -z "$old" ]; then
        printf '%-24s %14s %14s %7s  %s\n' "$cell" "-" "${new:--}" "-" "skip (no baseline)"
        continue
    fi
    if [ -z "$new" ]; then
        printf '%-24s %14s %14s %7s  %s\n' "$cell" "$old" "-" "-" "FAIL (not measured)"
        fail=1
        continue
    fi
    ratio="$(awk -v o="$old" -v n="$new" 'BEGIN { printf "%.3f", (o > 0) ? n / o : 1 }')"
    if awk -v o="$old" -v n="$new" -v r="$MIN_RATIO" 'BEGIN { exit !(o <= 0 || n >= o * r) }'; then
        verdict="ok"
    else
        verdict="FAIL (below min ratio)"
        fail=1
    fi
    printf '%-24s %14s %14s %7s  %s\n' "$cell" "$old" "$new" "$ratio" "$verdict"
done

if [ "$fail" -ne 0 ]; then
    echo "bench gate: FAIL — hot-path throughput regressed past the threshold"
    exit 1
fi
echo "bench gate: PASS"
