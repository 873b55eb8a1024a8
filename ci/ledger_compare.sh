#!/usr/bin/env bash
# Pipeline-ledger regression check: measures `benchmark/` at a base commit
# and at this checkout, and holds the second to the first.
#
# Builds both `pipeline-ledger` binaries offline (the base in a temporary
# `git worktree`), then runs the named workloads — every workload of
# BENCHMARK.json unless some are named, so a perf PR can take ten pairs of
# its claimed workload without an hour of the others — for `pairs` (default
# three) pairs of five seconds: pair k uses seed k on both sides, and the
# side that goes first alternates, because the host drifts by more than the
# bounds within minutes and only neighbouring runs compare. A run exits
# non-zero when a pass fails one of the workload's own correctness checks,
# and that ends the script. Last, `pipeline-ledger --compare base head`
# applies BENCHMARK.json's bounds to the medians and requires zero failed
# operations and bit-identical simulated makespans, and its verdict on the
# workloads that ran is the script's exit code. After it, one line per
# workload and end-to-end metric counts the pairs in which head was ahead
# and behind: medians say how far, the sign count says how reliably, and a
# claimed gain needs both. Under each count, the two sides' medians and
# quartiles over the pairs, the median gain (positive when head is better)
# and the base's interquartile range: a claimed gain is ahead in ≥ 9 of 10
# pairs with a median gain above the base's IQR. These lines only print.
#
# With workloads named, one `--trace 1 --seed 7` pass per side and workload
# follows the pairs, into directories of its own, and every per-layer row
# non-zero on either side prints as `row base head Δ%`: where a change moved
# the time. These lines only print too.
#
# Both sides write to sibling directories of one length under one temporary
# directory, because the length of `--out` alone moves `peak_rss_mb` (by
# ≈ 8 MB on `execute_forkjoin`); head results are copied to benchmark/out/
# on exit (CI uploads them).
#
# Usage: ci/ledger_compare.sh <base-ref> [pairs] [workload…]
set -euo pipefail

base_ref="${1:?usage: ci/ledger_compare.sh <base-ref> [pairs] [workload…]}"
pairs="${2:-3}"
shift $(($# < 2 ? $# : 2))
chosen="$*"
root="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
work="$(mktemp -d)"
base_out="$work/out/base" head_out="$work/out/head"
base_traced="$work/traced/base" head_traced="$work/traced/head"
cleanup() {
    if [ -d "$head_out" ]; then
        cp -r "$head_out" "$root/benchmark/out"
    fi
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$work/base" "$base_ref"
echo "base $(git -C "$work/base" rev-parse --short HEAD), head $(git -C "$root" rev-parse --short HEAD)"

for checkout in "$work/base" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$checkout/benchmark/Cargo.toml"
done
ledger=benchmark/target/release/pipeline-ledger

workloads="${chosen:-$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([a-z_]*\)".*/\1/p' "$root/BENCHMARK.json")}"
rm -rf "$root/benchmark/out"

# run <side> <workload> <seed>, from the side's checkout so that the result
# is stamped with its revision.
run() {
    local checkout="$root" out="$head_out"
    if [ "$1" = base ]; then
        checkout="$work/base" out="$base_out"
    fi
    printf '%s, pair %s: ' "$1" "$3"
    (cd "$checkout" && "./$ledger" --workload "$2" --seed "$3" --seconds 5 --out "$out")
}

for pair in $(seq "$pairs"); do
    sides="base head"
    if [ $((pair % 2)) -eq 0 ]; then
        sides="head base"
    fi
    for workload in $workloads; do
        for side in $sides; do
            run "$side" "$workload" "$pair"
        done
    done
done

status=0
"$root/$ledger" --compare "$base_out" "$head_out" | tee "$work/compare.txt" || status=$?
if [ -n "$chosen" ]; then
    # --compare fails the workloads that did not run; judge the chosen ones.
    status=0
    for workload in $workloads; do
        if awk -v w="$workload" '$1 == w && (/OUTSIDE|DIFFERS|missing/ || (/failed operations/ && $3 != 0))' \
            "$work/compare.txt" | grep -q .; then
            status=1
        fi
    done
fi

# value <result file> <metric>: the number under "metrics" → <metric> → "value".
value() {
    awk -v key="\"$2\": {" 'index($0, key) { getline; sub(/.*: /, ""); sub(/,.*/, ""); print; exit }' "$1"
}

# quartiles <value…>: Q1, median and Q3 by the rule of Python's
# `statistics.quantiles(n=4)`, the rule the ledger's own spreads use.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END {
        n = NR
        if (n < 2) { print v[1], v[1], v[1]; exit }
        for (i = 1; i <= 3; i++) {
            j = int(i * (n + 1) / 4)
            j = (j < 1) ? 1 : (j > n - 1) ? n - 1 : j
            d = i * (n + 1) - 4 * j
            q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
        }
        print q[1], q[2], q[3] }'
}

echo
echo "sign counts, pair k of base against pair k of head:"
sed -n '/"end_to_end"/,/"per_layer"/p' "$root/BENCHMARK.json" |
    awk -F'"' '/"name"/ { name = $4 } /"better"/ { print name, $4 }' |
    while read -r metric better; do
        for workload in $workloads; do
            ahead=0 behind=0 bs="" hs=""
            for pair in $(seq "$pairs"); do
                b="$(value "$base_out/$workload.seed$pair.json" "$metric")"
                h="$(value "$head_out/$workload.seed$pair.json" "$metric")"
                bs="$bs $b" hs="$hs $h"
                case "$(awk -v b="$b" -v h="$h" -v better="$better" 'BEGIN {
                    d = (better == "lower") ? b - h : h - b
                    print (d > 0) ? "ahead" : (d < 0) ? "behind" : "level" }')" in
                ahead) ahead=$((ahead + 1)) ;;
                behind) behind=$((behind + 1)) ;;
                esac
            done
            printf '  %-18s %-12s head better in %d of %d pairs, worse in %d\n' \
                "$workload" "$metric" "$ahead" "$pairs" "$behind"
            # shellcheck disable=SC2086 # one word per pair
            awk -v base="$(quartiles $bs)" -v head="$(quartiles $hs)" -v better="$better" 'BEGIN {
                split(base, b, " "); split(head, h, " ")
                gain = (better == "lower") ? b[2] - h[2] : h[2] - b[2]
                printf "  %32s base %.5g [%.5g, %.5g], head %.5g [%.5g, %.5g]; median gain %.5g, base IQR %.5g\n",
                    "", b[2], b[1], b[3], h[2], h[1], h[3], gain, b[3] - b[1] }'
        done
    done

# traced <side> <workload>: one traced pass, seed 7, its report kept quiet.
traced() {
    local checkout="$root" out="$head_traced"
    if [ "$1" = base ]; then
        checkout="$work/base" out="$base_traced"
    fi
    mkdir -p "$out"
    (cd "$checkout" && "./$ledger" --workload "$2" --seed 7 --seconds 5 --trace 1 --out "$out") \
        >"$out/$2.log"
}

if [ -n "$chosen" ]; then
    layers="$(sed -n '/"per_layer"/,$s/.*"name": "\([^"]*\)".*/\1/p' "$root/BENCHMARK.json")"
    echo
    echo "per-layer rows of one --trace 1 --seed 7 pass per side:"
    printf '  %-18s %-40s %12s %12s %9s\n' workload row base head "Δ%"
    for workload in $workloads; do
        for side in base head; do
            traced "$side" "$workload" || echo "  $workload: the $side traced pass failed"
        done
        b_file="$base_traced/$workload.seed7.trace.json"
        h_file="$head_traced/$workload.seed7.trace.json"
        if [ ! -f "$b_file" ] || [ ! -f "$h_file" ]; then
            continue
        fi
        for row in $layers; do
            awk -v w="$workload" -v r="$row" -v b="$(value "$b_file" "$row")" \
                -v h="$(value "$h_file" "$row")" 'BEGIN {
                if (b + 0 == 0 && h + 0 == 0) exit
                d = (b + 0 == 0) ? "n/a" : sprintf("%+.1f", (h - b) / b * 100)
                printf "  %-18s %-40s %12.5g %12.5g %9s\n", w, r, b, h, d }'
        done
    done
fi
exit "$status"
