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
# build, so it rides the journal band. load drives an open-loop arrival
# timeline into the full fleet, so its wall time is dominated by the
# configured rates — the gate only catches the protocol path falling off a
# cliff (saturating at rates it used to sustain).
gated_benches=(crypto invocation journal objectstore scenarios load)
declare -A gate_tolerance=([crypto]=2.0 [invocation]=3.0 [journal]=3.0 [objectstore]=3.0 [scenarios]=4.0 [load]=4.0)
declare -A gate_tolerance_quick=([crypto]=4.0 [invocation]=6.0 [journal]=6.0 [objectstore]=6.0 [scenarios]=8.0 [load]=8.0)
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

# Journal durability bench: print the group-commit ROI from the fresh report
# (acceptance floor: batched append >= 5x per-record fdatasync), then the
# pipelined-commit ROI table — per-append latency and throughput for each
# appenders x batches-in-flight cell against the blocking append of the same
# policy (acceptance floor: >= 1.5x blocking throughput with >= 2 batches in
# flight at kEveryRecord).
if [[ -f "$out_dir/BENCH_journal.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_journal.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = [b for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"]
times = {b["name"]: b["real_time"] for b in rows}
per_record = times.get("BM_JournalAppend_EveryRecord")
batched = times.get("BM_JournalAppend_Batch")
if per_record and batched:
    print(f"=== journal group commit: batched append {per_record / batched:.1f}x "
          f"per-record sync ===")
blocking = {"EveryRecord": per_record, "Batch": batched}
pipelined = {}
for b in rows:
    name = b["name"]
    if not name.startswith("BM_JournalAppendPipelined_"):
        continue
    policy = name[len("BM_JournalAppendPipelined_"):].split("/")[0]
    appenders = int(name.split("/appenders:")[1].split("/")[0])
    inflight = int(name.split("/inflight:")[1].split("/")[0])
    ips = b.get("items_per_second")
    if ips:
        pipelined.setdefault(policy, []).append(
            (appenders, inflight, ips, b.get("batches_in_flight_peak", 0),
             b.get("coalesced_barriers", 0)))
if pipelined:
    print("=== pipelined commit (append_async + ticket window vs blocking append) ===")
    for policy in ("EveryRecord", "Batch"):
        base = blocking.get(policy)
        base_ips = 1e6 / base if base else None
        for appenders, inflight, ips, peak, folded in sorted(pipelined.get(policy, [])):
            speedup = f"  {ips / base_ips:.2f}x blocking" if base_ips else ""
            print(f"  {policy:<11} appenders={appenders} inflight={inflight}:"
                  f" {ips / 1000:>7.1f}k appends/s{speedup}"
                  f"  (peak {peak:.0f} in flight, {folded:.0f} requests folded)")
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

# Object store: memoized-audit ROI (acceptance floor: memoized >= 10x cold),
# the dedup ratio the ~1M-record corpus achieved, and the harness footprint
# (peak RSS + journal bytes on disk) recorded in the same report.
if [[ -f "$out_dir/BENCH_objectstore.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_objectstore.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = {b["name"].split("/")[0]: b for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"}
cold = rows.get("BM_ColdAudit")
memo = rows.get("BM_MemoizedAudit")
rehash = rows.get("BM_MemoizedAuditRehash")
if cold and memo:
    ratio = cold["real_time"] / memo["real_time"]
    print(f"=== object store: memoized audit {ratio:.0f}x cold "
          f"(dedup {memo.get('dedup_ratio', 0):.2f}x over "
          f"{int(memo.get('records', 0))} records) ===")
if cold and rehash:
    ratio = cold["real_time"] / rehash["real_time"]
    print(f"    sound default (chain rehash on memo hit): {ratio:.1f}x cold")
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

# Open-loop load sweep: coordinated-omission-safe latency percentiles per
# offered arrival rate, plus the max sustainable throughput (highest offered
# rate the fleet achieved within tolerance of, i.e. `sustained` == 1).
if [[ -f "$out_dir/BENCH_load.json" ]] && command -v python3 >/dev/null; then
  python3 - "$out_dir/BENCH_load.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
rows = [b for b in report.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration" and "offered_rate" in b]
if rows:
    print("=== open-loop load (CO-safe latency per offered rate) ===")
    sustainable = 0.0
    for b in rows:
        name = b["name"].split("/real_time")[0]
        sustained = b.get("sustained", 0) >= 1
        if name.startswith("BM_Load_RateSweep") and sustained:
            sustainable = max(sustainable, b.get("offered_rate", 0))
        print(f"  {name:<34} offered {b.get('offered_rate', 0):>6.0f}/s  "
              f"achieved {b.get('achieved_rate', 0):>6.0f}/s  "
              f"p50 {b.get('p50_ms', 0):>5.0f}ms  p99 {b.get('p99_ms', 0):>5.0f}ms  "
              f"p999 {b.get('p999_ms', 0):>5.0f}ms"
              f"{'' if sustained else '  << SATURATED'}")
    if sustainable:
        print(f"  max sustainable throughput: {sustainable:.0f} req/s")
PYEOF
fi
exit $failed
