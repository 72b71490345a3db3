#!/usr/bin/env python3
"""A/B the benchmark between a base revision and the working tree.

Checks <rev> out into a temporary `git worktree`, then runs
`perfbench/run.py` alternately there (A) and in the working tree (B),
in ABBA order: pair i runs A first when i is even and B first when it
is odd, so a drift of the host's speed over the session falls on both
sides alike.  Each side gets one untimed warm-up run per workload
first: perfbench builds its own Release binary on first use.

For each workload and each end-to-end metric of BENCHMARK.json it
prints both sides' medians and quartiles, the ratio B/A, how many
pairs B won (ties count for neither) and whether the gain rule holds:
B wins at least nine tenths of the pairs, and the medians differ by
more than A's interquartile range.  A run whose result is not
`"correct": true` is reported and stops the comparison.

Usage:
    tools/perfab.py --base <rev> [--workload W ...] [--pairs 10]
        [--seconds 30] [--seed 1] [--dry-run]

--dry-run prints the schedule and runs nothing.  Stdlib only.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream", "datacenter", "pvfs")


def schedule(workloads, pairs, seconds):
    """(side, workload, pair, seconds) in run order; pair None = warm-up."""
    runs = []
    for wl in workloads:
        runs += [("A", wl, None, 1), ("B", wl, None, 1)]
        for i in range(pairs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                runs.append((side, wl, i, seconds))
    return runs


def command(workload, seed, seconds):
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]


def run_once(tree, workload, seed, seconds):
    """One perfbench run in @p tree; returns its result document."""
    proc = subprocess.run(command(workload, seed, seconds), cwd=tree,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    if proc.returncode != 0 or doc is None or not doc.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perfab: {workload} run in {tree} exited "
                 f"{proc.returncode} without a correct result")
    return doc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(metric, a, b):
    """One table row's fields for paired runs a[i], b[i]."""
    lower = metric["better"] == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    ma, mb = statistics.median(a), statistics.median(b)
    qa, qb = quartiles(a), quartiles(b)
    gain = (ma - mb) if lower else (mb - ma)
    holds = wins >= math.ceil(0.9 * len(a)) and gain > qa[1] - qa[0]
    return {
        "A": f"{ma:.4g} [{qa[0]:.4g}, {qa[1]:.4g}]",
        "B": f"{mb:.4g} [{qb[0]:.4g}, {qb[1]:.4g}]",
        "B/A": f"{mb / ma:.3f}" if ma else "-",
        "B wins": f"{wins}/{len(a)}",
        "gain": "yes" if holds else "no",
    }


def report(spec, workload, results):
    cols = ("metric", "A", "B", "B/A", "B wins", "gain")
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in results["A"]]
        b = [r["metrics"][name]["value"] for r in results["B"]]
        rows.append({"metric": name, **verdict(metric, a, b)})
    widths = [max(len(c), *(len(r[c]) for r in rows)) for c in cols]
    print(f"\n{workload}: median [q1, q3] over {len(results['A'])} pairs, "
          "A = base, B = working tree")
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        print("  ".join(r[c].ljust(w) for c, w in zip(cols, widths)))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dry-run", action="store_true",
                    help="print the schedule, run nothing")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds want >= 1")

    runs = schedule(args.workload, args.pairs, args.seconds)
    if args.dry_run:
        print(f"A = {args.base} in a temporary git worktree, "
              "B = the working tree")
        for n, (side, wl, pair, secs) in enumerate(runs, 1):
            tag = "warm-up" if pair is None else f"pair {pair + 1}"
            print(f"{n:4d} {side} {wl:<10} {tag:<8} "
                  + " ".join(command(wl, args.seed, secs)[1:]))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rev = subprocess.run(["git", "rev-parse", "--verify",
                          args.base + "^{commit}"], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="perfab-")
    base_tree = os.path.join(tmp, "base")
    subprocess.run(["git", "worktree", "add", "--detach", base_tree, rev],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    trees = {"A": base_tree, "B": ROOT}
    results = {wl: {"A": [], "B": []} for wl in args.workload}
    try:
        for n, (side, wl, pair, secs) in enumerate(runs, 1):
            doc = run_once(trees[side], wl, args.seed, secs)
            if pair is not None:
                results[wl][side].append(doc)
                wall = doc["metrics"]["wall_s"]["value"]
                print(f"[{n}/{len(runs)}] {wl} pair {pair + 1} {side}: "
                      f"wall_s {wall:.4f}", file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"A = {args.base} ({rev[:10]}), B = working tree; seed "
          f"{args.seed}, {args.seconds} s per run")
    for wl in args.workload:
        report(spec, wl, results[wl])
    return 0


if __name__ == "__main__":
    sys.exit(main())
