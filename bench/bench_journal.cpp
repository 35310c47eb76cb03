// Durable evidence journal: append throughput per sync policy (the group
// commit ROI) and recovery-scan speed. 256-byte payloads approximate an
// encoded evidence record.
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

void run_append(benchmark::State& state, const std::string& name,
                journal::SyncPolicy policy) {
  const Bytes payload(kPayloadBytes, 0xab);
  const std::string dir = bench_dir(name);
  auto writer = journal::Writer::open({.dir = dir,
                                       .segment_max_bytes = 8ull << 20,
                                       .sync = policy,
                                       .batch_records = 64,
                                       .sync_interval_ms = 5});
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

/// Baseline: fdatasync on every append.
void BM_JournalAppend_EveryRecord(benchmark::State& state) {
  run_append(state, "every_record", journal::SyncPolicy::kEveryRecord);
}
BENCHMARK(BM_JournalAppend_EveryRecord)->Unit(benchmark::kMicrosecond);

/// Group commit: one device barrier per 64-record batch.
void BM_JournalAppend_Batch(benchmark::State& state) {
  run_append(state, "batch", journal::SyncPolicy::kEveryBatch);
}
BENCHMARK(BM_JournalAppend_Batch)->Unit(benchmark::kMicrosecond);

/// Timed: write-through on every append, fdatasync at most every 5 ms.
void BM_JournalAppend_Timed(benchmark::State& state) {
  run_append(state, "timed", journal::SyncPolicy::kTimed);
}
BENCHMARK(BM_JournalAppend_Timed)->Unit(benchmark::kMicrosecond);

// ---- pipelined commit ----
//
// The async API's ROI axis: N appender threads stage records through
// append_async() and keep a window of unsettled durability tickets per
// thread, so ticket waits overlap with later batches' writes. inflight is
// the sync stage's max_batches_in_flight — inflight=1 is the serial-pipeline
// control (every barrier retires before the next is accepted), inflight>=2
// is where batch N+1 accumulates while batch N's barrier runs.
void run_append_pipelined(benchmark::State& state, const std::string& name,
                          journal::SyncPolicy policy) {
  const int appenders = static_cast<int>(state.range(0));
  const auto inflight = static_cast<std::size_t>(state.range(1));
  constexpr int kPerThreadPerIter = 256;
  const Bytes payload(kPayloadBytes, 0xab);
  const std::string dir = bench_dir(name + "_" + std::to_string(appenders) + "_" +
                                    std::to_string(inflight));
  auto writer = journal::Writer::open({.dir = dir,
                                       .segment_max_bytes = 8ull << 20,
                                       .sync = policy,
                                       .batch_records = 64,
                                       .max_batches_in_flight = inflight});
  if (!writer.ok()) {
    state.SkipWithError(writer.error().detail.c_str());
    return;
  }
  // Per-thread ticket window: settle the oldest ticket only once the window
  // covers the pipeline depth. kEveryRecord queues a barrier per record, so
  // the window is `inflight` tickets; kEveryBatch queues one per 64 records.
  const std::size_t window_max =
      policy == journal::SyncPolicy::kEveryRecord ? inflight : inflight * 64;
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
          if (window.size() > window_max) {
            if (!window.front().wait().ok()) {
              failed = true;
              return;
            }
            window.pop_front();
          }
        }
        // Batched policies only queue a barrier when a batch fills, and a
        // rotation's seal re-phases the boundaries — force the tail batch's
        // barrier or the final window would wait on tickets nothing covers.
        if (!writer.value()->sync().ok()) {
          failed = true;
          return;
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
  state.counters["batches_in_flight_peak"] =
      static_cast<double>(stats.batches_in_flight_peak);
  state.counters["coalesced_barriers"] = static_cast<double>(stats.coalesced_barriers);
  state.counters["ticket_wait_us_avg"] =
      stats.ticket_waits == 0 ? 0.0
                              : static_cast<double>(stats.ticket_wait_ns) / 1e3 /
                                    static_cast<double>(stats.ticket_waits);
  (void)writer.value()->close();
  fs::remove_all(dir);
}

/// Pipelined per-record durability: every record's barrier still retires,
/// but the appender overlaps the wait across `inflight` outstanding tickets.
void BM_JournalAppendPipelined_EveryRecord(benchmark::State& state) {
  run_append_pipelined(state, "pipe_every_record", journal::SyncPolicy::kEveryRecord);
}
BENCHMARK(BM_JournalAppendPipelined_EveryRecord)
    ->ArgNames({"appenders", "inflight"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Pipelined group commit: batch N+1 accumulates and writes while batch N's
/// device barrier is in flight.
void BM_JournalAppendPipelined_Batch(benchmark::State& state) {
  run_append_pipelined(state, "pipe_batch", journal::SyncPolicy::kEveryBatch);
}
BENCHMARK(BM_JournalAppendPipelined_Batch)
    ->ArgNames({"appenders", "inflight"})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Crash-recovery scan (CRC + sequence + checkpoint verification) over a
/// journal of range(0) records, rotated into ~1 MiB segments.
void BM_JournalRecoveryScan(benchmark::State& state) {
  const auto records = static_cast<std::uint64_t>(state.range(0));
  const std::string dir = bench_dir("recovery_" + std::to_string(records));
  {
    auto writer = journal::Writer::open({.dir = dir,
                                         .segment_max_bytes = 1ull << 20,
                                         .sync = journal::SyncPolicy::kEveryBatch,
                                         .batch_records = 256});
    if (!writer.ok()) {
      state.SkipWithError(writer.error().detail.c_str());
      return;
    }
    const Bytes payload(kPayloadBytes, 0x5c);
    for (std::uint64_t i = 0; i < records; ++i) (void)writer.value()->append(payload);
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
