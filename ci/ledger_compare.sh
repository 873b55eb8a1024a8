#!/usr/bin/env bash
# Pipeline-ledger regression check: measures `benchmark/` at a base commit
# and at this checkout, and holds the second to the first.
#
# Builds both `pipeline-ledger` binaries offline (the base in a temporary
# `git worktree`), then runs every workload of BENCHMARK.json for three
# pairs of five seconds: pair k uses seed k on both sides, and the side
# that goes first alternates, because the host drifts by more than the
# bounds within minutes and only neighbouring runs compare. A run exits
# non-zero when a pass fails one of the workload's own correctness checks,
# and that ends the script. Last, `pipeline-ledger --compare base head`
# applies BENCHMARK.json's bounds to the medians and requires zero failed
# operations and bit-identical simulated makespans.
#
# Head results are left in benchmark/out/ (CI uploads them).
#
# Usage: ci/ledger_compare.sh <base-ref>
set -euo pipefail

base_ref="${1:?usage: ci/ledger_compare.sh <base-ref>}"
root="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
work="$(mktemp -d)"
cleanup() {
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

workloads="$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([a-z_]*\)".*/\1/p' "$root/BENCHMARK.json")"
rm -rf "$root/benchmark/out"

# run <side> <workload> <seed>, from the side's checkout so that the result
# is stamped with its revision.
run() {
    local checkout="$root" out="$root/benchmark/out"
    if [ "$1" = base ]; then
        checkout="$work/base" out="$work/out"
    fi
    printf '%s, pair %s: ' "$1" "$3"
    (cd "$checkout" && "./$ledger" --workload "$2" --seed "$3" --seconds 5 --out "$out")
}

for pair in 1 2 3; do
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

"$root/$ledger" --compare "$work/out" "$root/benchmark/out"
