#!/usr/bin/env bash
# Parent/change comparison on the repository benchmark (BENCHMARK.json):
# builds <base> — a revision, checked out in a throw-away worktree under
# target/, or the directory of a checkout someone already made (and maybe
# built), used in place — runs every
# workload on both sides back to back, alternating which side goes first,
# and hands both sets of runs to `benchmark compare`, whose verdict table
# (the regression rule) and exit status are this script's. It then prints
# the gain rule (scripts/bench_gain.py): per workload and metric the
# same-seed wins / ties / pairs, both medians and the base's quartile
# distance, so "at least 9 of 10 pairs and a median gap above the base's
# own spread" is read off the output.
#
#   ./scripts/bench_compare.sh <base-rev | base-dir> [pairs=3] [seed0=now] [workloads=all]
#
# Pair n runs every workload on both sides with seed seed0+n; the seeds are
# printed, so passing the same seed0 again re-runs the same pairs. The
# optional fourth argument is a space-separated subset of BENCHMARK.json's
# workloads (quoted, e.g. "fill_ssd serve_ssd"), so extra pairs for one
# claim need not re-run the rest. Nothing else CPU-heavy may run meanwhile.
# Ten pairs back a claim (EXPERIMENTS.md "Key-range sub-tasks"); three tell
# a regression from noise.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: $0 <base-rev | base-dir> [pairs=3] [seed0=now] [workloads=all]"
if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    echo "$usage" >&2
    exit 2
fi
base_rev=$1
pairs=${2:-3}
seed0=${3:-$(date +%s)}

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
all_workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
workloads=${4:-$all_workloads}
for workload in $workloads; do
    case " $all_workloads " in
        *" $workload "*) ;;
        *) echo "unknown workload '$workload' (BENCHMARK.json has: $all_workloads)" >&2; echo "$usage" >&2; exit 2 ;;
    esac
done

out=target/bench-compare
mkdir -p "$out"
if [ -d "$base_rev" ]; then
    # A checkout of the caller's: neither created nor removed here.
    base=$base_rev
else
    base=target/bench-base
    cleanup() {
        git worktree remove --force "$base" 2>/dev/null || true
        git worktree prune
    }
    trap cleanup EXIT
    cleanup
    git worktree add --quiet --detach "$base" "$base_rev"
fi

for side in "$base" .; do
    echo "==> build $side/benchmark"
    cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
done
base_bin=$base/benchmark/target/release/pcp-benchmark
change_bin=benchmark/target/release/pcp-benchmark

# Either side's history may hold earlier runs; compare only this
# session's.
lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }
history=benchmark/results/history.jsonl
base_history=$base/benchmark/results/history.jsonl
before=$(lines "$history")
base_before=$(lines "$base_history")

run() { # <binary> <workload> <seed>; a run with failed operations exits 1 and still counts
    "$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1 || [ $? -eq 1 ]
}

echo "==> seeds $((seed0 + 1))..$((seed0 + pairs)) (seed0 $seed0)"
for pair in $(seq 1 "$pairs"); do
    seed=$((seed0 + pair))
    nth=0
    for workload in $workloads; do
        # Who goes first flips from one pair to the next and from one
        # workload to the next.
        nth=$((nth + 1))
        if [ $(((pair + nth) % 2)) -eq 0 ]; then order="$base_bin $change_bin"; else order="$change_bin $base_bin"; fi
        for bin in $order; do
            echo "==> pair $pair/$pairs $workload seed $seed: $bin"
            run "$bin" "$workload" "$seed"
        done
    done
done

tail -n "+$((before + 1))" "$history" > "$out/change.jsonl"
tail -n "+$((base_before + 1))" "$base_history" > "$out/base.jsonl"
echo "==> compare $base_rev (base) with the working tree"
status=0
"$change_bin" compare "$out/base.jsonl" "$out/change.jsonl" || status=$?
echo "==> gain rule, same-seed pairs"
python3 scripts/bench_gain.py "$out/base.jsonl" "$out/change.jsonl"
exit "$status"
