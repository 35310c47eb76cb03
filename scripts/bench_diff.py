#!/usr/bin/env python3
"""Compare Google-Benchmark JSON reports of a base and a fresh build.

Usage: bench_diff.py --base B1.json [B2.json ...] --fresh F1.json [F2.json ...]
                     [--tolerance X] [--fail-on-regression]

Each side is one or more reports of the same bench, one per round, taken
on the same host (scripts/run_benches.sh --base runs the two builds
interleaved). Benchmarks are matched by name, and each side's time for a
name is the median of its rounds' real_time. Speedup is base/fresh (>1 is
faster). With --fail-on-regression, exits 1 if any benchmark present on
both sides has a fresh median slower than TOLERANCE x the base median
(default 2.0 — generous, so scheduler noise does not flap the gate; real
regressions on crypto hot paths are an order of magnitude, not tens of
percent).

A base side whose files are all missing is not an error: a bench added in
the fresh build has no base yet, so the fresh results are printed
standalone and the run passes.
"""
import argparse
import json
import os
import statistics
import sys


def load(paths):
    """Median real_time per benchmark name over `paths`, plus the harness
    block of the last report."""
    times, units, harness = {}, {}, {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for b in report.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            times.setdefault(b["name"], []).append(float(b["real_time"]))
            units[b["name"]] = b.get("time_unit", "ns")
        harness = report.get("harness") or harness
    return {n: (statistics.median(ts), units[n]) for n, ts in times.items()}, harness


def print_harness_diff(base, fresh):
    """Footprint comparison from the harness blocks (informational only —
    RSS and disk use vary with corpus knobs, so they never gate)."""
    keys = sorted(base.keys() | fresh.keys())
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
    ap.add_argument("--base", nargs="+", required=True, help="base reports, one per round")
    ap.add_argument("--fresh", nargs="+", required=True, help="fresh reports, one per round")
    ap.add_argument("--tolerance", type=float, default=2.0,
                    help="fail when the fresh median > tolerance * the base median")
    ap.add_argument("--fail-on-regression", action="store_true")
    args = ap.parse_args()

    fresh, fresh_harness = load(args.fresh)
    base_paths = [p for p in args.base if os.path.exists(p)]
    if not base_paths:
        print(f"new bench — no base report ({args.base[0]}); nothing to gate")
        width = max((len(n) for n in fresh), default=10)
        for name in sorted(fresh):
            t, u = fresh[name]
            print(f"  {name:<{width}}  {t:>10.1f} {u}")
        return 0
    base, base_harness = load(base_paths)

    print(f"medians of {len(base_paths)} base and {len(args.fresh)} fresh rounds")
    width = max((len(n) for n in base | fresh), default=10)
    print(f"{'benchmark':<{width}}  {'base':>12}  {'fresh':>12}  {'speedup':>8}")
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
