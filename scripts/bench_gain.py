#!/usr/bin/env python3
"""The gain rule over two sets of benchmark runs (history.jsonl files), and
the committed trajectory built from such pairs.

    scripts/bench_gain.py <base.jsonl> <change.jsonl> [--trajectory <PR>]
    scripts/bench_gain.py --check <trajectory.jsonl>

`benchmark compare` answers "did anything get worse by more than its bound".
This prints what a *claim* needs (choosing-metrics §8): per workload and
end-to-end metric, how many same-seed pairs the change won, both medians, and
the parent's own quartile distance. A gain counts when the change wins at
least nine tenths of the pairs (ties count for neither) and the medians
differ by more than that distance. The `sep` column says whether every
change run reads better than every parent run: a row whose spread is wider
than its bound is unresolved, not unchanged, unless it is separated so
(choosing-metrics §6.5). It is printed only; the trajectory does not keep
it.

Below the end-to-end table, the per-layer rows every untraced run records
(PER_LAYER) get the same columns, so a layer target is read off the same
pairs as the claim.

`--trajectory <PR>` also appends one line to bench_results/trajectory.jsonl:
the PR number, both sides' commit, the seeds, the host, and per row
(workload.metric, the end-to-end metrics plus PER_LAYER) the change/parent
median ratio, the quartiles of the per-pair ratios, the wins and the pairs.
Absolute numbers drift with the host from one batch of runs to the next;
ratios of pairs run back to back do not, so the running product of a row's
ratios is its trajectory. It refuses two equal commits (commit the change first) and a PR
number not above the file's last one.

`--check <file>` validates a trajectory file (fields, increasing PR numbers,
distinct commits) and prints each row's running product of ratios.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

# Per-layer metrics an untraced run records.
PER_LAYER = ["bench.cpu_us_per_op"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "bench_results", "trajectory.jsonl")
HOST_KEYS = ["nproc", "cpu_model", "kernel"]
ROW_KEYS = ["ratio", "q1", "q3", "wins", "pairs"]


def load(path):
    """({(workload, seed): metrics}, {commit}, host) of the untraced runs in
    `path`, last run wins."""
    runs, commits, host = {}, set(), {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                if not run["trace"]:
                    runs[run["workload"], run["seed"]] = run["metrics"]
                    commits.add(run.get("commit"))
                    host = run.get("host", {})
    return runs, commits, host


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--check":
        return check(args[1])
    pr = None
    if len(args) == 4 and args[2] == "--trajectory":
        pr = int(args[3])
    elif len(args) != 2:
        sys.exit(__doc__)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    (base, base_commits, _), (change, change_commits, host) = load(args[0]), load(args[1])
    seeds = defaultdict(list)
    for workload, seed in sorted(base.keys() & change.keys()):
        seeds[workload].append(seed)

    per_layer = [m for m in spec["per_layer"] if m["name"] in PER_LAYER]
    rows = {}
    for title, metrics in (("metric", spec["end_to_end"]), ("per-layer", per_layer)):
        print(f"{'workload':<12} {title:<19} {'win/tie/pairs':>13} {'base med':>10} "
              f"{'change med':>10} {'gap':>8} {'base IQR':>9}  gain  sep")
        for workload, paired in seeds.items():
            for metric in metrics:
                entry = row(workload, paired, metric, base, change)
                if entry:
                    rows[f"{workload}.{metric['name']}"] = entry
    if pr is not None:
        append_trajectory(pr, base_commits, change_commits, seeds, host, rows)


def row(workload, paired, metric, base, change):
    """Prints one gain-rule row; returns its trajectory entry."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    paired = [s for s in paired if name in base[workload, s] and name in change[workload, s]]
    if not paired:
        return None
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
    # Separated: the change's worst run beats the parent's best.
    sep = "yes" if min(sign * y for y in c) > max(sign * x for x in b) else "no"
    print(f"{workload:<12} {name:<19} {f'{wins}/{ties}/{len(paired)}':>13} "
          f"{statistics.median(b):>10.4g} {statistics.median(c):>10.4g} "
          f"{gap:>+8.3g} {iqr:>9.3g}  {gain:<4}  {sep}")
    # A pair whose base reads 0 has no ratio, unless both read 0.
    ratios = [y / x if x else 1.0 for x, y in zip(b, c) if x or not y]
    if not ratios or not statistics.median(b):
        return None
    q1, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")[::2]
              if len(ratios) >= 2 else (ratios[0], ratios[0]))
    return {"ratio": round(statistics.median(c) / statistics.median(b), 5),
            "q1": round(q1, 5), "q3": round(q3, 5), "wins": wins, "pairs": len(paired)}


def read_trajectory(path):
    lines = []
    if os.path.exists(path):
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
    return lines


def append_trajectory(pr, base_commits, change_commits, seeds, host, rows):
    if len(base_commits) != 1 or len(change_commits) != 1:
        sys.exit(f"trajectory: each side must be one commit, got {base_commits} / {change_commits}")
    if base_commits == change_commits:
        sys.exit("trajectory: both sides ran the same commit; commit the change before comparing")
    last = read_trajectory(TRAJECTORY)
    if last and pr <= last[-1]["pr"]:
        sys.exit(f"trajectory: PR {pr} is not above the last line's {last[-1]['pr']}")
    if not rows:
        sys.exit("trajectory: no paired rows")
    line = {
        "pr": pr,
        "base_commit": base_commits.pop(),
        "change_commit": change_commits.pop(),
        "seeds": sorted({s for paired in seeds.values() for s in paired}),
        "host": {k: host.get(k) for k in HOST_KEYS},
        "rows": rows,
    }
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"==> trajectory: PR {pr}, {len(rows)} rows appended to {os.path.relpath(TRAJECTORY)}")


def check(path):
    lines = read_trajectory(path)
    if not lines:
        sys.exit(f"{path}: no lines")
    products, prev = defaultdict(list), None
    for n, line in enumerate(lines, 1):
        where = f"{path}:{n}"
        missing = {"pr", "base_commit", "change_commit", "seeds", "host", "rows"} - line.keys()
        if missing:
            sys.exit(f"{where}: missing {sorted(missing)}")
        if prev is not None and line["pr"] <= prev:
            sys.exit(f"{where}: PR {line['pr']} is not above {prev}")
        if line["base_commit"] == line["change_commit"]:
            sys.exit(f"{where}: base and change are the same commit")
        for name, r in line["rows"].items():
            if set(ROW_KEYS) - r.keys() or not (r["ratio"] > 0 and r["q1"] <= r["q3"]
                                                 and 0 <= r["wins"] <= r["pairs"]):
                sys.exit(f"{where}: bad row {name}: {r}")
            before = products[name][-1][1] if products[name] else 1.0
            products[name].append((line["pr"], before * r["ratio"]))
        prev = line["pr"]
    print(f"{path}: {len(lines)} lines, PRs {lines[0]['pr']}..{lines[-1]['pr']}")
    print(f"{'row':<32} running product of change/parent median ratios (PR: product)")
    for name in sorted(products):
        chain = "  ".join(f"{pr}: {p:.4f}" for pr, p in products[name])
        print(f"{name:<32} {chain}")


if __name__ == "__main__":
    main()
