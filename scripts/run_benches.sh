#!/usr/bin/env bash
# Runs every bench executable and collects the BENCH_<name>.json reports.
#
# Usage: scripts/run_benches.sh [--quick] [build-dir] [out-dir]
#   --quick    pass a tiny --benchmark_min_time for smoke/CI runs
#   build-dir  defaults to ./build
#   out-dir    defaults to ./bench_results
set -euo pipefail

quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
  shift
fi
build_dir="${1:-build}"
out_dir="${2:-bench_results}"

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found — build first: cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

mkdir -p "$out_dir"
out_dir="$(cd "$out_dir" && pwd)"
script_dir="$(cd "$(dirname "$0")" && pwd)"

# Snapshot the committed baselines of every gated bench before the run
# overwrites them, so we can diff (and fail on regressions) afterwards.
# crypto is pure CPU (tight tolerance); invocation rides the virtual
# network and journal does real fsync work, so they get more headroom;
# scenarios drive whole multi-party protocol waves (contention + injected
# loss), so they get the widest band — the gate exists to catch
# order-of-magnitude regressions in the end-to-end protocol path.
# objectstore mixes pure hashing with journal I/O and a ~1M-record corpus
# build, so it rides the journal band.
gated_benches=(crypto invocation journal objectstore scenarios)
declare -A gate_tolerance=([crypto]=2.0 [invocation]=3.0 [journal]=3.0 [objectstore]=3.0 [scenarios]=4.0)
declare -A gate_tolerance_quick=([crypto]=4.0 [invocation]=6.0 [journal]=6.0 [objectstore]=6.0 [scenarios]=8.0)
declare -A gate_baseline=()
for nm in "${gated_benches[@]}"; do
  if [[ -f "$out_dir/BENCH_$nm.json" ]]; then
    tmp="$(mktemp)"
    cp "$out_dir/BENCH_$nm.json" "$tmp"
    gate_baseline[$nm]="$tmp"
  fi
done

extra_args=()
if [[ $quick -eq 1 ]]; then
  extra_args+=("--benchmark_min_time=0.01" "--benchmark_min_warmup_time=0")
fi

failed=0
for bench in "$build_dir"/bench/bench_*; do
  [[ -x "$bench" && ! -d "$bench" ]] || continue
  name="$(basename "$bench")"
  bench_abs="$(cd "$(dirname "$bench")" && pwd)/$name"
  echo "=== $name ==="
  if (cd "$out_dir" && "$bench_abs" "${extra_args[@]}"); then
    echo "--- wrote $out_dir/BENCH_${name#bench_}.json"
  else
    echo "!!! $name failed" >&2
    failed=1
  fi
done

ls -l "$out_dir"/BENCH_*.json

# Bench diff: compare each fresh gated report against its pre-run baseline
# and fail on regressions beyond tolerance. Quick/CI runs execute on
# arbitrary shared runners against a baseline recorded elsewhere, so the
# tolerance widens there: it still catches the order-of-magnitude
# regressions that matter without flapping on hardware skew.
if command -v python3 >/dev/null; then
  for nm in "${gated_benches[@]}"; do
    [[ -f "$out_dir/BENCH_$nm.json" ]] || continue
    # No pre-run snapshot means the committed tree had no baseline for this
    # bench (it is new); bench_diff prints the fresh numbers and passes.
    baseline="${gate_baseline[$nm]:-$out_dir/.no-baseline-$nm.json}"
    tolerance="${gate_tolerance[$nm]}"
    [[ $quick -eq 1 ]] && tolerance="${gate_tolerance_quick[$nm]}"
    echo "=== bench diff ($nm, vs committed baseline, tolerance ${tolerance}x) ==="
    python3 "$script_dir/bench_diff.py" --fail-on-regression --tolerance "$tolerance" \
      "$baseline" "$out_dir/BENCH_$nm.json" || failed=1
    rm -f "$baseline"
  done
else
  echo "note: python3 not found, skipping bench diff" >&2
fi

# Journal durability bench: print the pipelined-commit ROI — per-append
# throughput for each appenders x ticket-window cell against the blocking
# per-record append (acceptance floor: >= 1.5x blocking throughput with a
# window of >= 2 tickets). Every append requests its own barrier; a wider
# window lets more of those requests fold into one fdatasync.
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
