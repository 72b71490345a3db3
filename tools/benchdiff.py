#!/usr/bin/env python3
"""Compare two ioat-bench-v1 perf-trajectory files with noise tolerance.

Every bench binary writes a normalized BENCH_<name>.json on success:
events executed, wall seconds, events/sec, peak RSS, the config echo
and the git revision.  This tool compares a baseline against a current
run and exits non-zero on regression, so CI can gate on it:

 * model fields compare exactly — the bench name must match, and with
   --require-events-equal the executed-event count must too.  The
   count is deterministic, so a change means the code changed, not
   the machine: either the model (the goldens move too) or only how
   many events the engine spends on the same results (the goldens
   and perfbench's pins hold; the baselines are regenerated with
   that change);
 * perf fields compare with tolerance — speed, baseline wallSeconds /
   current wallSeconds, may not drop below --min-ratio, and peak RSS
   may not exceed --max-rss-ratio x baseline.  Speed is wall time, not
   events/sec: a change that spends fewer events on the same results
   lowers events/sec while the run gets faster.  At equal event counts
   the two ratios are the same.  Checked-in baselines come from a
   different machine, so CI uses a generous --min-ratio;
 * config-echo differences are reported, and fatal with --strict-config.

Usage:
    tools/benchdiff.py baseline.json current.json
        [--min-ratio 0.5] [--max-rss-ratio 4.0]
        [--require-events-equal] [--strict-config]

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "ioat-bench-v1":
        sys.exit(f"{path}: not an ioat-bench-v1 document")
    for field in ("bench", "config", "metrics"):
        if field not in doc:
            sys.exit(f"{path}: missing '{field}'")
    return doc


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--min-ratio", type=float, default=0.5,
                    help="baseline wallSeconds / current wallSeconds "
                         "must be >= this (default 0.5)")
    ap.add_argument("--max-rss-ratio", type=float, default=4.0,
                    help="current peak RSS must be <= this x baseline "
                         "(default 4.0)")
    ap.add_argument("--require-events-equal", action="store_true",
                    help="fail when the executed-event counts differ")
    ap.add_argument("--strict-config", action="store_true",
                    help="fail when the config echoes differ")
    args = ap.parse_args()

    base = load(args.baseline)
    curr = load(args.current)
    failures = []

    if base["bench"] != curr["bench"]:
        failures.append(f"bench mismatch: {base['bench']} vs "
                        f"{curr['bench']}")

    bm, cm = base["metrics"], curr["metrics"]
    print(f"bench: {curr['bench']}")
    print(f"  gitRev:       {base.get('gitRev', '?')} -> "
          f"{curr.get('gitRev', '?')}")
    print(f"  events:       {bm['events']} -> {cm['events']}")
    print(f"  wallSeconds:  {bm['wallSeconds']} -> {cm['wallSeconds']}")
    print(f"  eventsPerSec: {bm['eventsPerSec']} -> {cm['eventsPerSec']}")
    print(f"  peakRssBytes: {bm['peakRssBytes']} -> {cm['peakRssBytes']}")

    diffs = [k for k in sorted(set(base["config"]) | set(curr["config"]))
             if base["config"].get(k) != curr["config"].get(k)]
    for k in diffs:
        line = (f"config '{k}': {base['config'].get(k)!r} -> "
                f"{curr['config'].get(k)!r}")
        if args.strict_config:
            failures.append(line)
        else:
            print(f"  note: {line}")

    if bm["events"] != cm["events"]:
        line = (f"executed events changed: {bm['events']} -> "
                f"{cm['events']} (the code changed: the model, or only "
                f"the events spent on the same results; not noise)")
        if args.require_events_equal:
            failures.append(line)
        else:
            print(f"  note: {line}")

    if cm["wallSeconds"] > 0:
        ratio = bm["wallSeconds"] / cm["wallSeconds"]
        print(f"  speed ratio:      {ratio:.2f}x "
              f"(gate: >= {args.min_ratio:.2f}x)")
        if ratio < args.min_ratio:
            failures.append(
                f"wall time regressed: speed {ratio:.2f}x baseline "
                f"(min {args.min_ratio:.2f}x)")

    if bm["peakRssBytes"] > 0:
        ratio = cm["peakRssBytes"] / bm["peakRssBytes"]
        print(f"  peak-RSS ratio:   {ratio:.2f}x "
              f"(gate: <= {args.max_rss_ratio:.2f}x)")
        if ratio > args.max_rss_ratio:
            failures.append(
                f"peak RSS grew to {ratio:.2f}x baseline "
                f"(max {args.max_rss_ratio:.2f}x)")

    if failures:
        print("\nREGRESSION:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\nOK: within tolerance")


if __name__ == "__main__":
    main()
