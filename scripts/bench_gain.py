#!/usr/bin/env python3
"""The gain rule over two sets of benchmark runs (history.jsonl files).

    scripts/bench_gain.py <base.jsonl> <change.jsonl>

`benchmark compare` answers "did anything get worse by more than its bound".
This prints what a *claim* needs (choosing-metrics §8): per workload and
end-to-end metric, how many same-seed pairs the change won, both medians, and
the parent's own quartile distance. A gain counts when the change wins at
least nine tenths of the pairs (ties count for neither) and the medians
differ by more than that distance.

Below the end-to-end table, the per-layer rows every untraced run records
(PER_LAYER) get the same columns, so a layer target is read off the same
pairs as the claim.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

# Per-layer metrics an untraced run records.
PER_LAYER = ["bench.cpu_us_per_op"]


def load(path):
    """{(workload, seed): metrics} of the untraced runs in `path`, last run wins."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                if not run["trace"]:
                    runs[run["workload"], run["seed"]] = run["metrics"]
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    base, change = load(sys.argv[1]), load(sys.argv[2])
    seeds = defaultdict(list)
    for workload, seed in sorted(base.keys() & change.keys()):
        seeds[workload].append(seed)

    per_layer = [m for m in spec["per_layer"] if m["name"] in PER_LAYER]
    for title, metrics in (("metric", spec["end_to_end"]), ("per-layer", per_layer)):
        print(f"{'workload':<12} {title:<19} {'win/tie/pairs':>13} {'base med':>10} "
              f"{'change med':>10} {'gap':>8} {'base IQR':>9}  gain")
        for workload, paired in seeds.items():
            for metric in metrics:
                row(workload, paired, metric, base, change)


def row(workload, paired, metric, base, change):
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    paired = [s for s in paired if name in base[workload, s] and name in change[workload, s]]
    if not paired:
        return
    b = [base[workload, s][name] for s in paired]
    c = [change[workload, s][name] for s in paired]
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
    ties = sum(x == y for x, y in zip(b, c))
    gap = sign * (statistics.median(c) - statistics.median(b))
    if len(b) >= 2:
        q = statistics.quantiles(b, n=4, method="inclusive")
        iqr = q[2] - q[0]
        gain = "yes" if wins >= 0.9 * len(paired) and gap > iqr else "no"
    else:
        iqr, gain = float("nan"), "n/a"
    print(f"{workload:<12} {name:<19} {f'{wins}/{ties}/{len(paired)}':>13} "
          f"{statistics.median(b):>10.4g} {statistics.median(c):>10.4g} "
          f"{gap:>+8.3g} {iqr:>9.3g}  {gain}")


if __name__ == "__main__":
    main()
