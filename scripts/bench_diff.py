#!/usr/bin/env python3
"""Compare two Google-Benchmark JSON reports and print a speedup table.

Usage: bench_diff.py BASELINE.json FRESH.json [--tolerance X] [--fail-on-regression]

Benchmarks are matched by name. Speedup is baseline/fresh real_time (>1 is
faster). With --fail-on-regression, exits 1 if any benchmark present in both
files runs slower than TOLERANCE x the baseline (default 2.0 — generous, so
machine noise and debug-vs-release skew don't flap CI; real regressions on
crypto hot paths are an order of magnitude, not tens of percent).

A missing BASELINE file is not an error: a bench added in the current change
has no committed baseline yet, so the fresh results are printed standalone
and the run passes — the baseline exists from the next commit on.
"""
import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        report = json.load(f)
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = (float(b["real_time"]), b.get("time_unit", "ns"))
    return out, report.get("harness") or {}


# Fixed-work host calibration the bench harness records (median of 5
# SHA-256 passes over 1 MiB); a time, not a footprint.
HOST_REF_KEY = "host_ref_ns"


def print_host_calibration(base, fresh):
    """One line on relative host speed, read next to the speedup column:
    both are baseline/fresh, so a row whose speedup matches the calibration
    ratio ran as fast as the host allows. Informational only."""
    b, f = base.get(HOST_REF_KEY), fresh.get(HOST_REF_KEY)
    if not b or not f:
        print("host calibration: not recorded in both reports")
        return
    print(f"host calibration ({HOST_REF_KEY}): baseline {b} ns, fresh {f} ns, "
          f"baseline/fresh {b / f:.2f}x (<1: this host is slower)")


def print_harness_diff(base, fresh):
    """Footprint comparison from the harness blocks (informational only —
    RSS and disk use vary with corpus knobs, so they never gate)."""
    keys = sorted((base.keys() | fresh.keys()) - {HOST_REF_KEY})
    if not keys:
        return
    print("harness footprint (informational):")
    for key in keys:
        b, f = base.get(key), fresh.get(key)
        fmt = lambda v: f"{v / 2**20:.1f} MiB" if v is not None else "—"
        delta = f"  ({(f - b) / 2**20:+.1f} MiB)" if b is not None and f is not None else ""
        print(f"  {key:<16} {fmt(b):>12} -> {fmt(f):>12}{delta}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="fail when fresh > tolerance * baseline")
    ap.add_argument("--fail-on-regression", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        fresh, _ = load(args.fresh)
        print(f"new bench — no baseline at {args.baseline}; nothing to gate")
        width = max((len(n) for n in fresh), default=10)
        for name in sorted(fresh):
            t, u = fresh[name]
            print(f"  {name:<{width}}  {t:>10.1f} {u}")
        return 0

    base, base_harness = load(args.baseline)
    fresh, fresh_harness = load(args.fresh)

    print_host_calibration(base_harness, fresh_harness)
    width = max((len(n) for n in base | fresh), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  {'speedup':>8}")
    regressions = []
    for name in sorted(base | fresh):
        if name not in base:
            t, u = fresh[name]
            print(f"{name:<{width}}  {'—':>12}  {t:>10.1f} {u}  {'new':>8}")
            continue
        if name not in fresh:
            t, u = base[name]
            print(f"{name:<{width}}  {t:>10.1f} {u}  {'—':>12}  {'gone':>8}")
            continue
        (bt, bu), (ft, fu) = base[name], fresh[name]
        if bu != fu:  # units should match for same-named benchmarks
            print(f"{name:<{width}}  unit mismatch ({bu} vs {fu}), skipped")
            continue
        speedup = bt / ft if ft > 0 else float("inf")
        flag = ""
        if ft > args.tolerance * bt:
            regressions.append((name, speedup))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {bt:>10.1f} {bu}  {ft:>10.1f} {fu}  {speedup:>7.2f}x{flag}")

    print_harness_diff(base_harness, fresh_harness)

    if regressions and args.fail_on_regression:
        print(f"\n{len(regressions)} regression(s) beyond {args.tolerance}x tolerance:",
              file=sys.stderr)
        for name, speedup in regressions:
            print(f"  {name}: {speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
