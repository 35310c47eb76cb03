#!/usr/bin/env bash
# Runs every bench executable and collects the BENCH_<name>.json reports.
# With --base, gates the timed benches against another revision, built and
# run on the same host.
#
# Usage: scripts/run_benches.sh [--quick] [--base REV] [build-dir] [out-dir]
#   --quick     pass a tiny --benchmark_min_time for smoke/CI runs
#   --base REV  check REV out into a local git worktree (<build-dir>/base-src),
#               build its gated benches in <build-dir>/base-build with the
#               fresh build's type and compiler, run base and fresh binaries
#               of each gated bench interleaved for 3 rounds, and fail when
#               a fresh median is slower than tolerance x the base median.
#               Without --base nothing is gated: a report from another host
#               (such as the committed bench_results/) says nothing about
#               this build.
#   build-dir   defaults to ./build
#   out-dir     defaults to ./bench_results; per-round reports go to
#               <out-dir>/rounds/{base,fresh}-<round>/
set -euo pipefail

quick=0
base_rev=""
positional=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1; shift ;;
    --base) base_rev="${2:?--base needs a revision}"; shift 2 ;;
    *) positional+=("$1"); shift ;;
  esac
done
build_dir="${positional[0]:-build}"
out_dir="${positional[1]:-bench_results}"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — build first: cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

mkdir -p "$out_dir"
out_dir="$(cd "$out_dir" && pwd)"
build_dir="$(cd "$build_dir" && pwd)"
script_dir="$(cd "$(dirname "$0")" && pwd)"
rounds_dir="$out_dir/rounds"

# Gated benches and their tolerances on the ratio of medians. crypto is
# pure CPU (tight tolerance); invocation rides the virtual network and
# journal does real fsync work, so they get more headroom; scenarios drive
# whole multi-party protocol waves (contention + injected loss), so they
# get the widest band — the gate exists to catch order-of-magnitude
# regressions in the end-to-end protocol path. objectstore mixes pure
# hashing with journal I/O and a ~1M-record corpus build, so it rides the
# journal band. Quick runs time each case for a few milliseconds, so their
# medians are noisier and the bands are twice as wide.
gated_benches=(crypto invocation journal objectstore scenarios)
# Rounds per side with --base: the median of 3 shrugs off one outlier run.
readonly rounds=3
declare -A gate_tolerance=([crypto]=2.0 [invocation]=3.0 [journal]=3.0 [objectstore]=3.0 [scenarios]=4.0)
declare -A gate_tolerance_quick=([crypto]=4.0 [invocation]=6.0 [journal]=6.0 [objectstore]=6.0 [scenarios]=8.0)

extra_args=()
if [[ $quick -eq 1 ]]; then
  extra_args+=("--benchmark_min_time=0.01" "--benchmark_min_warmup_time=0")
fi

# run_bench BINARY DIR: run one bench, its report written into DIR.
run_bench() {
  mkdir -p "$2"
  (cd "$2" && "$1" "${extra_args[@]}")
}

# run_round BINARY DIR: run_bench with the console output kept in DIR.
run_round() {
  local log
  log="$2/$(basename "$1").log"
  mkdir -p "$2"
  run_bench "$1" "$2" >"$log" 2>&1 || { echo "!!! $1 failed, see $log" >&2; return 1; }
}

failed=0

if [[ -n "$base_rev" ]]; then
  repo_root="$(git -C "$script_dir/.." rev-parse --show-toplevel)"
  base_sha="$(git -C "$repo_root" rev-parse --verify "$base_rev^{commit}")"
  worktree="$build_dir/base-src"
  base_build="$build_dir/base-build"
  if [[ -e "$worktree/.git" ]]; then
    git -C "$worktree" checkout --quiet --detach --force "$base_sha"
  else
    git -C "$repo_root" worktree prune
    git -C "$repo_root" worktree add --quiet --detach "$worktree" "$base_sha"
  fi
  # Same build type, compiler and launcher (ccache in CI) as the fresh build.
  cfg=()
  for var in CMAKE_BUILD_TYPE CMAKE_CXX_COMPILER CMAKE_CXX_COMPILER_LAUNCHER; do
    value="$(sed -n "s/^$var:[A-Z]*=//p" "$build_dir/CMakeCache.txt")"
    [[ -n "$value" ]] && cfg+=("-D$var=$value")
  done
  echo "=== building base $base_rev ($base_sha) in $base_build ==="
  cmake -S "$worktree" -B "$base_build" "${cfg[@]}" >/dev/null
  for nm in "${gated_benches[@]}"; do
    cmake --build "$base_build" --target "bench_$nm" -j "$(nproc)" >"$base_build/bench_$nm.build.log" 2>&1 ||
      echo "note: bench_$nm did not build at the base (see $base_build/bench_$nm.build.log); its gate passes" >&2
  done

  # Interleaved rounds: base and fresh runs of a bench sit next to each
  # other in time, so host drift hits both sides alike.
  rm -rf "$rounds_dir"
  for ((round = 1; round <= rounds; round++)); do
    for nm in "${gated_benches[@]}"; do
      [[ -x "$build_dir/bench/bench_$nm" ]] || continue
      if [[ -x "$base_build/bench/bench_$nm" ]]; then
        echo "=== bench_$nm (base, round $round/$rounds) ==="
        run_round "$base_build/bench/bench_$nm" "$rounds_dir/base-$round" || failed=1
      fi
      echo "=== bench_$nm (fresh, round $round/$rounds) ==="
      run_round "$build_dir/bench/bench_$nm" "$rounds_dir/fresh-$round" || failed=1
    done
  done
  for nm in "${gated_benches[@]}"; do
    last="$rounds_dir/fresh-$rounds/BENCH_$nm.json"
    [[ -f "$last" ]] && cp "$last" "$out_dir/"
  done
fi

# Every bench not run in rounds above runs once.
for bench in "$build_dir"/bench/bench_*; do
  [[ -x "$bench" && ! -d "$bench" ]] || continue
  name="$(basename "$bench")"
  if [[ -n "$base_rev" && " ${gated_benches[*]} " == *" ${name#bench_} "* ]]; then
    continue
  fi
  echo "=== $name ==="
  if run_bench "$bench" "$out_dir"; then
    echo "--- wrote $out_dir/BENCH_${name#bench_}.json"
  else
    echo "!!! $name failed" >&2
    failed=1
  fi
done

ls -l "$out_dir"/BENCH_*.json

# Gate: the median of the fresh rounds against the median of the base
# rounds, per benchmark (bench_diff.py).
if [[ -n "$base_rev" ]]; then
  for nm in "${gated_benches[@]}"; do
    [[ -f "$rounds_dir/fresh-1/BENCH_$nm.json" ]] || continue
    base_reports=()
    fresh_reports=()
    for ((round = 1; round <= rounds; round++)); do
      base_reports+=("$rounds_dir/base-$round/BENCH_$nm.json")
      fresh_reports+=("$rounds_dir/fresh-$round/BENCH_$nm.json")
    done
    tolerance="${gate_tolerance[$nm]}"
    [[ $quick -eq 1 ]] && tolerance="${gate_tolerance_quick[$nm]}"
    echo "=== bench diff ($nm, vs $base_rev, tolerance ${tolerance}x) ==="
    python3 "$script_dir/bench_diff.py" --fail-on-regression --tolerance "$tolerance" \
      --base "${base_reports[@]}" --fresh "${fresh_reports[@]}" || failed=1
  done
else
  echo "note: no --base revision given, so no bench is gated" >&2
fi

# Journal durability bench: print the pipelined-commit ROI — per-append
# throughput for each appenders x ticket-window cell against the blocking
# per-record append (acceptance floor: >= 1.5x blocking throughput with a
# window of >= 2 tickets). An append requests no barrier; a ticket wait
# requests one covering every append written so far, so a wider window
# lets more appends ride one fdatasync.
if [[ -f "$out_dir/BENCH_journal.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_journal.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = [b for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"]
times = {b["name"]: b["real_time"] for b in rows}
blocking = times.get("BM_JournalAppend_EveryRecord")
blocking_ips = 1e6 / blocking if blocking else None
pipelined = []
for b in rows:
    name = b["name"]
    if not name.startswith("BM_JournalAppendPipelined_EveryRecord/"):
        continue
    appenders = int(name.split("/appenders:")[1].split("/")[0])
    inflight = int(name.split("/inflight:")[1].split("/")[0])
    ips = b.get("items_per_second")
    if ips:
        pipelined.append((appenders, inflight, ips, b.get("fsyncs_per_1k_appends", 0),
                          b.get("coalesced_barriers", 0)))
if pipelined:
    print("=== pipelined commit (append_async + ticket window vs blocking append) ===")
    for appenders, inflight, ips, fsyncs, folded in sorted(pipelined):
        speedup = f"  {ips / blocking_ips:.2f}x blocking" if blocking_ips else ""
        print(f"  appenders={appenders} window={inflight}:"
              f" {ips / 1000:>7.1f}k appends/s{speedup}"
              f"  ({fsyncs:.0f} fsyncs per 1k appends, {folded:.0f} requests folded)")
PYEOF
fi

# Concurrency scaling table: throughput per worker-thread count and speedup
# over the single-thread row, for each BM_*/threads:N family. The pool
# columns come from the obs registry gauges the ThreadPool maintains
# (peak queue depth / peak simultaneously-active workers over the run).
if [[ -f "$out_dir/BENCH_concurrency.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_concurrency.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
families = {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]
    if "/threads:" not in name:
        continue
    family = name.split("/threads:")[0]
    threads = int(name.split("/threads:")[1].split("/")[0])
    ips = b.get("items_per_second")
    if ips:
        families.setdefault(family, {})[threads] = (
            ips, b.get("pool_queue_peak"), b.get("pool_active_peak"))
if families:
    print("=== concurrency scaling (items/s; speedup vs 1 thread; "
          "pool peak queue/active) ===")
    for family, rows in families.items():
        base = rows.get(1, (None,))[0]
        cells = []
        for threads in sorted(rows):
            ips, queue_peak, active_peak = rows[threads]
            speedup = f" ({ips / base:.2f}x)" if base else ""
            pool = ""
            if queue_peak is not None and active_peak is not None:
                pool = f" q{queue_peak:.0f}/a{active_peak:.0f}"
            cells.append(f"{threads}t: {ips / 1000:.1f}k/s{speedup}{pool}")
        print(f"  {family:<36} " + "  ".join(cells))
PYEOF
fi

# Object store: memoized-audit ROI against a cold audit (a memo hit skips
# decode and signatures but always rehashes the chain; committed baseline:
# 3279 ms cold vs 869 ms memoized, 3.8x — earlier baselines, from faster
# boxes, had 2466 vs 674 ms and 1574 vs 485 ms), the dedup ratio of the
# ~1M-record corpus interned into a fresh store by the recovery-rebuild row,
# and the harness footprint (peak RSS + journal bytes on disk) recorded in
# the same report.
if [[ -f "$out_dir/BENCH_objectstore.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_objectstore.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = {b["name"].split("/")[0]: b for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"}
cold = rows.get("BM_ColdAudit")
memo = rows.get("BM_MemoizedAuditRehash")
rebuild = rows.get("BM_JournalRecoveryRebuild", {})
if cold and memo:
    ratio = cold["real_time"] / memo["real_time"]
    print(f"=== object store: memoized audit {ratio:.1f}x cold "
          f"(rebuild dedup {rebuild.get('dedup_ratio', 0):.2f}x over "
          f"{int(memo.get('records', 0))} records) ===")
harness = report.get("harness")
if harness:
    print(f"    harness: peak RSS {harness.get('peak_rss_bytes', 0) / 2**20:.0f} MiB, "
          f"disk {harness.get('disk_bytes', 0) / 2**20:.0f} MiB")
PYEOF
fi

# Scenario table: end-to-end protocol throughput per party count, for each
# wave kind (fair exchange / sharing / mixed over the concurrent runtime).
if [[ -f "$out_dir/BENCH_scenarios.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_scenarios.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
families = {}
for b in report.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    name = b["name"]
    if "/parties:" not in name:
        continue
    family = name.split("/parties:")[0]
    parties = int(name.split("/parties:")[1].split("/")[0])
    ips = b.get("items_per_second")
    if ips:
        families.setdefault(family, {})[parties] = ips
if families:
    print("=== scenario throughput (protocol ops/s per party count) ===")
    for family, rows in families.items():
        cells = [f"{p}p: {rows[p]:.0f}/s" for p in sorted(rows)]
        print(f"  {family:<30} " + "  ".join(cells))
PYEOF
fi

exit $failed
