#!/usr/bin/env python3
"""Per-thread-class CPU of one benchmark run.

    scripts/thread_cpu.py <pcp-benchmark binary> --workload <name> --seed <n> --seconds <s>

Runs the binary once, untraced, and samples /proc/<pid>/task/*/stat every
50 ms. When the run ends it prints the user and sys CPU of each thread
class, as seconds and as µs per request, then the run's JSON line. The
classes are:

    main     the process's first thread (setup, read-back, shutdown)
    client   unnamed threads the main thread started; on serve_ssd these
             are the two KvClient connections
    loop     pcp-kv-loop-*, the KV server's event loops
    flush    pcp-lsm-flush
    compact  pcp-lsm-compact, with the pipeline workers it starts (a
             thread inherits its creator's name)
    other    anything else, by name

A thread's CPU is its last sample, so one that exits loses up to 50 ms.
The lanes and the main thread also count the setup phase; the client and
loop classes run only in the timed phase. The request count is `requests`
from the run's result file, which the binary writes to `results/` beside
its `target/` directory (e.g. benchmark/target/release/pcp-benchmark
writes benchmark/results/<workload>.untraced.json). Only serve_ssd records
one; for the other workloads the script prints totals only.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
INTERVAL_S = 0.05
CLASSES = ["client", "loop", "flush", "compact", "main"]


def sample(pid, threads):
    """Updates `threads` (tid -> (comm, utime_s, stime_s)) from /proc."""
    task = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task)
    except FileNotFoundError:
        return
    for tid in tids:
        try:
            with open(f"{task}/{tid}/stat") as f:
                stat = f.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # The name sits in parentheses and may hold spaces; the fields
        # after it start at field 3 (state), so utime and stime, fields 14
        # and 15, are the 12th and 13th.
        comm = stat[stat.index("(") + 1 : stat.rindex(")")]
        rest = stat[stat.rindex(")") + 2 :].split()
        threads[int(tid)] = (comm, int(rest[11]) * TICK_S, int(rest[12]) * TICK_S)


def thread_class(tid, comm, pid, main_comm):
    if tid == pid:
        return "main"
    if comm == main_comm:
        return "client"
    if comm.startswith("pcp-kv-loop"):
        return "loop"
    if comm == "pcp-lsm-flush":
        return "flush"
    if comm == "pcp-lsm-compact":
        return "compact"
    return f"other:{comm}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args()

    command = [args.binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", "0"]
    # Standard output goes to a file, so a long output cannot fill a pipe
    # that is read only after the run.
    with tempfile.TemporaryFile(mode="w+") as out:
        proc = subprocess.Popen(command, stdout=out, text=True)
        threads = {}
        while proc.poll() is None:
            sample(proc.pid, threads)
            time.sleep(INTERVAL_S)
        out.seek(0)
        lines = out.read().strip().splitlines()
    line = lines[-1] if lines else ""

    result = pathlib.Path(args.binary).resolve().parents[2] / "results" / f"{args.workload}.untraced.json"
    try:
        requests = json.loads(result.read_text())["info"].get("requests")
    except (OSError, ValueError, KeyError):
        requests = None

    main_comm = threads.get(proc.pid, ("",))[0]
    totals = {}
    for tid, (comm, user, sys_s) in threads.items():
        cls = thread_class(tid, comm, proc.pid, main_comm)
        count, u, s = totals.get(cls, (0, 0.0, 0.0))
        totals[cls] = (count + 1, u + user, s + sys_s)

    per = f"µs/request over {requests:.0f} requests" if requests else "µs/request (no request count)"
    print(f"{'class':<24} {'threads':>7} {'user s':>8} {'sys s':>8}   {per}: user, sys")
    order = CLASSES + sorted(c for c in totals if c not in CLASSES)
    for cls in order:
        if cls not in totals:
            continue
        count, user, sys_s = totals[cls]
        us = f"{user * 1e6 / requests:8.2f} {sys_s * 1e6 / requests:8.2f}" if requests else ""
        print(f"{cls:<24} {count:>7} {user:8.2f} {sys_s:8.2f}   {us}")
    print(line)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
