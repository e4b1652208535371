#!/usr/bin/env python3
"""Steadiness check for the serving-path benchmark.

Runs every workload in two interleaved sets of runs (set A and set B take
turns, each run with its own seed), then prints, per workload and metric,
each set's median, its spread (Q3 - Q1) / median, and the spread and
quartiles over both sets together. Exits
non-zero when the two sets' medians differ by more than the metric's bound
in BENCHMARK.json, when a run fails, or when the share of failed
operations differs between the sets.

Run from the repository root:

    python3 servebench/steady.py [--runs 10] [--workloads intersection,...]
                                 [--seconds S]

The quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Run i of set s uses seed SEED_BASE + 2 * i + s.
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    seconds = opts.seconds if opts.seconds is not None else bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: ([], []) for w in workloads}
    for i in range(opts.runs):
        for s in (0, 1):
            for w in workloads:
                seed = SEED_BASE + 2 * i + s
                r = run_once(bench["command"], w, seed, seconds)
                results[w][s].append(r)
                print(f"run {i} set {'AB'[s]} {w} seed {seed}: {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}",
                      file=sys.stderr, flush=True)

    bad = []
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<32} {'median A':>12} {'median B':>12} {'diff':>7} {'bound':>6}"
              f" {'spread A':>9} {'spread B':>9} {'spread':>9}  Q1..Q3 (all)")
        for s in (0, 1):
            for r in results[w][s]:
                if not r["correct"]:
                    bad.append(f"{w}: a run of set {'AB'[s]} failed its checks")
        shares = [{r["failed"] / r["attempted"] for r in results[w][s]} for s in (0, 1)]
        if len(shares[0] | shares[1]) != 1:
            bad.append(f"{w}: failed shares differ: {sorted(shares[0] | shares[1])}")
        for m in metrics:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in results[w][s]] for s in (0, 1)]
            (ma, _, _, sa), (mb, _, _, sb) = summary(sets[0]), summary(sets[1])
            _, q1, q3, spread = summary(sets[0] + sets[1])
            diff = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
            bound = m["bound"]
            flag = ""
            if abs(diff) > bound:
                flag = "  MEDIANS DIFFER"
                bad.append(f"{w}: {name} medians differ by {diff:+.1%} (bound {bound:.0%})")
            elif max(sa, sb, spread) > bound:
                flag = "  SPREAD > BOUND"
            elif max(sa, sb, spread) > bound / 3:
                flag = "  spread > bound/3"
            print(f"  {name:<32} {ma:>12.5g} {mb:>12.5g} {diff:>+7.1%} "
                  f"{bound:>6.2f} {sa:>9.2%} {sb:>9.2%} {spread:>9.2%}"
                  f"  {q1:.5g}..{q3:.5g}{flag}")
        walls = [r["wall_s"] for s in (0, 1) for r in results[w][s]]
        print(f"  run wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")

    if bad:
        print("\nNOT STEADY:\n  " + "\n  ".join(bad))
        return 1
    print("\nsteady: every median within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
