#!/usr/bin/env python3
"""Simulator benchmark: host cost of the stream, datacenter and pvfs sweeps.

Builds the perfbench binary (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload for a host-time budget,
checks every sweep point's simulated results against pins.json and
the binary's conservation checks, and prints one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer ones.

usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check     # tiny windows, every metric
    python3 perfbench/run.py --regen-pins     # after a deliberate model change
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("stream", "datacenter", "pvfs")
# Datacenter requests draw from ClientFleet's RNG, seeded by --seed;
# its pins hold for this seed.  Stream and pvfs take no random input.
PIN_SEED = 1
# For other seeds the datacenter results must stay this close to the
# pinned ones (seeds 1..7 move TPS and hit ratio by under 1.5 %).
SEED_BAND = 0.05
SEED_BAND_KEYS = ("tps", "proxy_cpu", "web_cpu", "hit_ratio", "lat_mean_us")

# Published numbers the model was calibrated on: (point, result, value).
ANCHORS = {
    "stream": [("tcp-6port", "mbps", 9600.0), ("ioat-6port", "mbps", 9600.0)],
    "datacenter": [("non-ioat-4k", "tps", 8569.0), ("ioat-4k", "tps", 9754.0)],
    "pvfs": [
        ("read-non-ioat", "MBps", 649.0),
        ("read-ioat", "MBps", 731.0),
        ("write-non-ioat", "MBps", 697.0),
        ("write-ioat", "MBps", 750.0),
    ],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date; False on failure."""
    jobs = str(min(2, os.cpu_count() or 1))  # small memory footprint
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return False
    return True


def drive(workload, seed, seconds, trace, tiny=False):
    """Run the perfbench binary; returns (exit code, parsed document or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(ROOT, ".bench_build", f"spans-{workload}.json")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = None
    return proc.returncode, doc


def median(values):
    return statistics.median(values) if values else 0.0


def paper_error(doc):
    """Mean absolute relative error (%) of the anchor points; logs each."""
    results = {p["name"]: p["results"] for p in doc["points"]}
    errs = []
    for point, key, paper in ANCHORS[doc["workload"]]:
        sim = results[point][key]
        errs.append(abs(sim - paper) / paper)
        log(f"  anchor {point} {key}: simulated {sim:.1f}, paper {paper:.0f}"
            f" ({100 * errs[-1]:.2f} % off)")
    return 100.0 * sum(errs) / len(errs)


def check_pins(doc, pins):
    """Names of points whose simulated results differ from the pins."""
    bad = []
    want = pins.get(doc["workload"], {})
    got = {p["name"]: p["results"] for p in doc["points"]}
    exact = doc["workload"] != "datacenter" or doc["seed"] == PIN_SEED
    if sorted(want) != sorted(got):
        return [f"sweep points {sorted(got)} != pinned {sorted(want)}"]
    for name, pinned in want.items():
        for key, value in pinned.items():
            sim = got[name].get(key)
            if sim is None:
                bad.append(f"{name}: {key} missing")
            elif exact and not math.isclose(sim, value, rel_tol=1e-12, abs_tol=1e-12):
                bad.append(f"{name}: {key} = {sim!r}, pinned {value!r}")
            elif (not exact and key in SEED_BAND_KEYS
                  and not math.isclose(sim, value, rel_tol=SEED_BAND, abs_tol=1e-9)):
                bad.append(f"{name}: {key} = {sim!r}, outside {SEED_BAND:.0%} of {value!r}")
    return bad


def total(doc, key):
    return sum(p["counts"].get(key, 0) for p in doc["points"])


def timed(rounds):
    """The sweeps host timings are taken from: all but the first, which
    warms the heap and caches, unless it is the only one."""
    return rounds[1:] or rounds


def layer_metrics(doc):
    """Per-layer metrics: exact counts summed over the sweep's points,
    host timings as medians over sweeps."""
    pts = doc["points"]
    plain = timed([r for r in doc["rounds"] if not r["traced"]])
    traced = [r for r in doc["rounds"] if r["traced"]]
    wl = doc["workload"]
    events = total(doc, "simcore.events")
    run_s = median([r["run_s"] for r in plain])
    m = {
        "simcore.events": (events, "count"),
        "simcore.run_s": (run_s, "s"),
        "simcore.events_per_s": (events / run_s if run_s else 0.0, "1/s"),
        "simcore.ns_per_event": (1e9 * run_s / events if events else 0.0, "ns"),
        "simcore.slice_p50_us": (median([r["slice_p50_us"] for r in traced]), "us"),
        "simcore.slice_p99_us": (median([r["slice_p99_us"] for r in traced]), "us"),
        "simcore.teardown_s": (median([r["teardown_s"] for r in plain]), "s"),
        "core.setup_s": (median([r["core_s"] for r in plain]), "s"),
        "cpu.items": (total(doc, "cpu.items"), "count"),
        "cpu.busy_ms": (total(doc, "cpu.busy_ns") / 1e6, "sim_ms"),
        "cpu.rx_util": (statistics.fmean(p["rx_util"] for p in pts), "ratio"),
    }
    for key in ("mem.bus_bytes", "dma.bytes", "nic.rx_wire_bytes", "tcp.rx_payload_bytes"):
        m[key] = (total(doc, key), "B")
    for key in ("dma.transfers", "dma.stalls", "nic.interrupts", "nic.rx_bursts",
                "nic.rx_drops", "net.dead_letters", "tcp.rx_segments", "tcp.cpu_copies",
                "tcp.dma_copies", "tcp.retransmits", "xpt.poll_passes", "xpt.rx_bursts",
                "xpt.credit_stalls", "xpt.retransmits"):
        m[key] = (total(doc, key), "count")

    tier = median([r["tier_s"] for r in plain])
    dc = [p for p in pts if "tps" in p["results"]]
    samples = total(doc, "dc.lat_samples")
    lookups = total(doc, "dc.lookups")
    m.update({
        "dc.setup_s": (tier if wl == "datacenter" else 0.0, "s"),
        "dc.requests": (total(doc, "dc.requests"), "count"),
        "dc.tps": (statistics.fmean(p["results"]["tps"] for p in dc) if dc else 0.0,
                   "1/sim_s"),
        "dc.lat_mean_us": (sum(p["results"]["lat_mean_us"] * p["counts"]["dc.lat_samples"]
                               for p in dc) / samples if samples else 0.0, "sim_us"),
        "dc.lat_max_us": (max([p["results"]["lat_max_us"] for p in dc], default=0.0),
                          "sim_us"),
        "dc.hit_ratio": (total(doc, "dc.hits") / lookups if lookups else 0.0, "ratio"),
        "dc.failed": (total(doc, "dc.failed"), "count"),
    })
    reads = [p["results"]["MBps"] for p in pts if p["name"].startswith("read-")]
    writes = [p["results"]["MBps"] for p in pts if p["name"].startswith("write-")]
    m.update({
        "pvfs.setup_s": (tier if wl == "pvfs" else 0.0, "s"),
        "pvfs.read_MBps": (statistics.fmean(reads) if reads else 0.0, "MB/sim_s"),
        "pvfs.write_MBps": (statistics.fmean(writes) if writes else 0.0, "MB/sim_s"),
        "pvfs.calls": (total(doc, "pvfs.calls"), "count"),
        "pvfs.iod_bytes": (total(doc, "pvfs.iod_bytes"), "B"),
        "pvfs.rpc_retries": (total(doc, "pvfs.rpc_retries"), "count"),
        "pvfs.rpc_failures": (total(doc, "pvfs.rpc_failures"), "count"),
    })
    for layer in ("dc", "pvfs"):
        for cat, share in doc["shares"].items():
            m[f"{layer}.share.{cat}"] = (share if doc["share_layer"] == layer else 0.0,
                                         "ratio")
    plain_wall = median([r["wall_s"] for r in plain])
    m["trace_overhead"] = (median([r["wall_s"] for r in traced]) / plain_wall
                           if plain_wall else 0.0, "ratio")
    return m


def end_to_end_metrics(doc, attempted, failed, paper_err):
    rounds = timed(doc["rounds"])
    return {
        "wall_s": (median([r["wall_s"] for r in rounds]), "s"),
        # Per point, then summed: one slow set-up of a few dozen
        # microseconds cannot move the sum's median by itself.
        "setup_s": (sum(median([r["point_setup_s"][i] for r in rounds])
                        for i in range(len(rounds[0]["point_setup_s"]))), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
        "ok_frac": (1.0 - failed / max(attempted, 1), "ratio"),
        "paper_err_pct": (paper_err, "%"),
    }


def run(workload, seed, seconds, trace, tiny=False, pins_path=PINS):
    """One benchmark run; returns (exit code, result object or None)."""
    if not build():
        return 1, None
    code, doc = drive(workload, seed, seconds, trace, tiny)
    if doc is None:
        log(f"perfbench: binary exited {code} without a result")
        return 1, None
    problems = list(doc["violations"])
    if not tiny:
        with open(pins_path) as f:
            problems += check_pins(doc, json.load(f))
    digest = doc["rounds"][0]["digest"]
    kernel_ms = median([r["kernel_ms"] for r in doc["rounds"]])
    log(f"perfbench {workload} seed {seed}: {len(doc['rounds'])} sweeps, "
        f"simulated digest {digest}, reference kernel {kernel_ms:.2f} ms")
    attempted = sum(p["issued"] for p in doc["points"])
    failed = sum(p["failed"] for p in doc["points"])
    paper_err = paper_error(doc)
    metrics = (layer_metrics(doc) if trace
               else end_to_end_metrics(doc, attempted, failed, paper_err))
    for name in problems:
        log(f"perfbench: CHECK FAILED {name}")
    result = {
        "correct": not problems and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return (0 if result["correct"] else 1), result


def regen_pins():
    if not build():
        return 1
    pins = {}
    for wl in WORKLOADS:
        code, doc = drive(wl, PIN_SEED, 1, 0)
        if code != 0 or doc is None:
            log(f"perfbench: {wl} failed; pins unchanged")
            return 1
        pins[wl] = {p["name"]: p["results"] for p in doc["points"]}
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {PINS}")
    return 0


def self_check():
    """Every metric of BENCHMARK.json printed with its unit on every
    workload (tiny windows), and a wrong pin fails the command."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(w["name"], PIN_SEED, 1, trace, tiny=True)
            if code != 0 or result is None:
                failures.append(f"{w['name']} trace {trace}: exit {code}")
                continue
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{w['name']}: {metric['name']} [{metric['unit']}] "
                                    f"printed as {got}")
                elif not math.isfinite(got["value"]):
                    failures.append(f"{w['name']}: {metric['name']} = {got['value']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[group]}
            if extra:
                failures.append(f"{w['name']}: metrics not in BENCHMARK.json: {sorted(extra)}")
    # A deliberately wrong pin must make a real run fail.
    with open(PINS) as f:
        pins = json.load(f)
    point = sorted(pins["pvfs"])[0]
    pins["pvfs"][point]["MBps"] *= 1.000001
    wrong = os.path.join(BUILD, "pins-wrong.json")
    with open(wrong, "w") as f:
        json.dump(pins, f)
    log(f"self-check: pvfs {point} pinned off by 1e-6; this run must fail")
    code, result = run("pvfs", PIN_SEED, 1, 0, pins_path=wrong)
    if code == 0 or result is None or result["correct"]:
        failures.append(f"a wrong pin on pvfs {point} did not fail the run")
    for msg in failures:
        log(f"self-check: FAILED {msg}")
    log("self-check: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--regen-pins", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if args.regen_pins:
        return regen_pins()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed wants >= 0 and --seconds >= 1")
    code, result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
