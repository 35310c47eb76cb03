// Durable evidence journal: append throughput with per-record durability,
// blocking and pipelined (the group-commit ROI), and recovery-scan speed.
// 256-byte payloads approximate an encoded evidence record.
#include <benchmark/benchmark.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "journal/reader.hpp"
#include "journal/writer.hpp"

namespace {

using namespace nonrep;
namespace fs = std::filesystem;

constexpr std::size_t kPayloadBytes = 256;

std::string bench_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("nonrep_bench_journal_" + name);
  fs::remove_all(dir);
  return dir.string();
}

void run_append(benchmark::State& state, const std::string& name) {
  const Bytes payload(kPayloadBytes, 0xab);
  const std::string dir = bench_dir(name);
  auto writer = journal::Writer::open({.dir = dir, .segment_max_bytes = 8ull << 20});
  if (!writer.ok()) {
    state.SkipWithError(writer.error().detail.c_str());
    return;
  }
  for (auto _ : state) {
    auto seq = writer.value()->append(payload);
    benchmark::DoNotOptimize(seq);
    if (!seq.ok()) {
      state.SkipWithError(seq.error().detail.c_str());
      break;
    }
  }
  const auto stats = writer.value()->stats();
  state.counters["fsyncs_per_1k_appends"] =
      stats.appends == 0
          ? 0.0
          : 1000.0 * static_cast<double>(stats.syncs) / static_cast<double>(stats.appends);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * kPayloadBytes));
  (void)writer.value()->close();
  fs::remove_all(dir);
}

/// Baseline: every append waits for its own fdatasync.
void BM_JournalAppend_EveryRecord(benchmark::State& state) {
  run_append(state, "every_record");
}
BENCHMARK(BM_JournalAppend_EveryRecord)->Unit(benchmark::kMicrosecond);

// ---- pipelined commit ----
//
// The async API's ROI axis: N appender threads stage records through
// append_async() and keep a window of up to `inflight` unsettled durability
// tickets per thread, so ticket waits overlap with later appends' writes
// and the barrier a wait requests covers every record written before it
// (appends request none). inflight=1 waits for each
// record right after staging the next.
void run_append_pipelined(benchmark::State& state, const std::string& name) {
  const int appenders = static_cast<int>(state.range(0));
  const auto inflight = static_cast<std::size_t>(state.range(1));
  constexpr int kPerThreadPerIter = 256;
  const Bytes payload(kPayloadBytes, 0xab);
  const std::string dir = bench_dir(name + "_" + std::to_string(appenders) + "_" +
                                    std::to_string(inflight));
  auto writer = journal::Writer::open({.dir = dir, .segment_max_bytes = 8ull << 20});
  if (!writer.ok()) {
    state.SkipWithError(writer.error().detail.c_str());
    return;
  }
  std::atomic<bool> failed{false};
  for (auto _ : state) {
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(appenders));
    for (int t = 0; t < appenders; ++t) {
      drivers.emplace_back([&] {
        std::deque<journal::DurableFuture> window;
        for (int i = 0; i < kPerThreadPerIter; ++i) {
          auto ticket = writer.value()->append_async(payload);
          if (!ticket.ok()) {
            failed = true;
            return;
          }
          window.push_back(std::move(ticket.value().durable));
          if (window.size() > inflight) {
            if (!window.front().wait().ok()) {
              failed = true;
              return;
            }
            window.pop_front();
          }
        }
        for (auto& f : window) {
          if (!f.wait().ok()) failed = true;
        }
      });
    }
    for (auto& d : drivers) d.join();
    if (failed.load()) {
      state.SkipWithError("append or barrier failed");
      break;
    }
  }
  const auto stats = writer.value()->stats();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(appenders) * kPerThreadPerIter);
  state.counters["fsyncs_per_1k_appends"] =
      stats.appends == 0
          ? 0.0
          : 1000.0 * static_cast<double>(stats.syncs) / static_cast<double>(stats.appends);
  state.counters["coalesced_barriers"] = static_cast<double>(stats.coalesced_barriers);
  state.counters["ticket_wait_us_avg"] =
      stats.ticket_waits == 0 ? 0.0
                              : static_cast<double>(stats.ticket_wait_ns) / 1e3 /
                                    static_cast<double>(stats.ticket_waits);
  (void)writer.value()->close();
  fs::remove_all(dir);
}

/// Pipelined per-record durability: every record is durable before its
/// ticket leaves the window, but the appender overlaps the wait across
/// `inflight` outstanding tickets, and one wait's barrier covers them all.
void BM_JournalAppendPipelined_EveryRecord(benchmark::State& state) {
  run_append_pipelined(state, "pipe_every_record");
}
BENCHMARK(BM_JournalAppendPipelined_EveryRecord)
    ->ArgNames({"appenders", "inflight"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Crash-recovery scan (frame CRC + sequence continuity) over a
/// journal of range(0) records, rotated into ~1 MiB segments. The corpus is
/// staged with append_async and made durable by one sync().
void BM_JournalRecoveryScan(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const std::string dir = bench_dir("recovery_" + std::to_string(records));
  {
    auto writer = journal::Writer::open({.dir = dir, .segment_max_bytes = 1ull << 20});
    if (!writer.ok()) {
      state.SkipWithError(writer.error().detail.c_str());
      return;
    }
    const Bytes payload(kPayloadBytes, 0x5c);
    for (std::uint64_t i = 0; i < records; ++i) (void)writer.value()->append_async(payload);
    (void)writer.value()->sync();
    (void)writer.value()->close();
  }
  for (auto _ : state) {
    auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
    benchmark::DoNotOptimize(report);
    if (!report.ok() || report.value().records.size() != records) {
      state.SkipWithError("recovery scan failed");
      break;
    }
  }
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(records * static_cast<std::uint64_t>(state.iterations())),
      benchmark::Counter::kIsRate);
  fs::remove_all(dir);
}
BENCHMARK(BM_JournalRecoveryScan)->Arg(1024)->Arg(16384)->Unit(benchmark::kMillisecond);

}  // namespace
