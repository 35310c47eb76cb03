#!/usr/bin/env python3
"""Build and run the open-loop fair-exchange benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fx_direct --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the nonrep library from
src/ plus the fxbench program) into .bench_build/perfbench; later calls only
rebuild what changed. fxbench's report lines are passed through and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a run whose emitted names or units differ from
the list is reported as not correct. --self-test runs fxbench's
accounting self-test and a one-second run of every workload in both modes.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure (once) and build fxbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "fxbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"perfbench: build step failed: {exc}")
            return None
        if proc.returncode != 0:
            log(f"perfbench: build step exited {proc.returncode}: {' '.join(cmd)}")
            return None
    binary = out / "fxbench"
    return binary if binary.exists() else None


def expected_metrics(trace):
    spec = json.loads(SPEC_PATH.read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def name_problems(result, trace):
    """Differences between the emitted metrics and BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in sorted(want.keys() - got.keys())]
    problems += [f"unlisted metric {n}" for n in sorted(got.keys() - want.keys())]
    problems += [f"unit of {n} is {got[n]}, BENCHMARK.json says {want[n]}"
                 for n in sorted(want.keys() & got.keys()) if got[n] != want[n]]
    return problems


def run_fxbench(binary, args, passthrough=True):
    """Runs fxbench; returns (exit code, stdout lines)."""
    cmd = [str(binary), *args, "--out-dir", str(build_dir() / "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} exceeded {RUN_TIMEOUT_S} s")
        return 1, []
    lines = proc.stdout.splitlines()
    if passthrough:
        for line in lines[:-1]:
            print(line)
    return proc.returncode, lines


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run; returns the checked result dict or None."""
    code, lines = run_fxbench(binary, ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(trace)])
    if code != 0 or not lines:
        log(f"perfbench: fxbench exited {code}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: fxbench printed no result line")
        return None
    for problem in name_problems(result, trace):
        print(f"# PROBLEM: {problem}")
        result["correct"] = False
    return result


def self_test(binary):
    code, lines = run_fxbench(binary, ["--self-test"], passthrough=False)
    for line in lines:
        print(line)
    ok = code == 0
    workloads = [w["name"] for w in json.loads(SPEC_PATH.read_text())["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            result = measure(binary, workload, seed=1, seconds=1, trace=trace)
            passed = result is not None and result["correct"] and result["failed"] == 0
            print(f"# self-test {workload} trace={trace}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    print(f"# self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
