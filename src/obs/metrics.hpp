// Always-on metrics layer: lock-free counters, gauges and HdrHistogram-style
// latency histograms behind a named registry.
//
// The paper's middleware is judged by how its evidence pipeline behaves
// under load, so the instruments must be cheap enough to leave on in the
// hot paths they measure. The record path is therefore allocation-free and
// mutex-free end to end:
//
//   * Counter / Gauge — one relaxed atomic op per update.
//   * Histogram — log-linear fixed buckets (32 sub-buckets per power of
//     two, ≤3.2% relative error) striped across per-thread recorder shards.
//     record() is a thread-local shard lookup plus one relaxed atomic
//     increment; shards are merged only on snapshot()/percentile queries.
//
// Registration (Registry::counter/gauge/histogram) is the cold path and
// takes a mutex; the returned references are stable for the registry's
// lifetime, so components resolve their handles once and record through
// them forever. Registry::global() is the process-wide instance the
// instrumented subsystems (journal, network, thread pool, caches, TTP)
// publish into; it is intentionally leaked so metrics survive static
// destruction order.
//
// Concurrency contract: every instrument is a leaf — recording never takes
// a lock and never calls back into the system, so instruments may be
// bumped while holding any subsystem mutex (see core/coordinator.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/lock_discipline.hpp"

namespace nonrep::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depth, active workers). Tracks the high-water
/// mark alongside the current value so a snapshot taken after a run still
/// shows the peak the run reached.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  void add(std::int64_t d) noexcept {
    update_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
  }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }
  void reset_max() noexcept { max_.store(value(), std::memory_order_relaxed); }
  void reset() noexcept {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// One table's share of a process-wide gauge: add() moves both, and the
/// share is taken back off the gauge by reset() and on destruction, so the
/// gauge sums what the live tables hold.
class GaugeShare {
 public:
  explicit GaugeShare(std::string_view gauge_name);
  ~GaugeShare() { reset(); }
  GaugeShare(const GaugeShare&) = delete;
  GaugeShare& operator=(const GaugeShare&) = delete;

  void add(std::int64_t d) noexcept {
    share_.fetch_add(d, std::memory_order_relaxed);
    gauge_.add(d);
  }
  void reset() noexcept { gauge_.add(-share_.exchange(0, std::memory_order_relaxed)); }
  std::int64_t share() const noexcept { return share_.load(std::memory_order_relaxed); }

 private:
  Gauge& gauge_;
  std::atomic<std::int64_t> share_{0};
};

/// Log-linear fixed-bucket histogram for latency-like values (u64 units,
/// conventionally nanoseconds). Values below 2^kSubBits land in exact
/// buckets; above that each power of two is split into 2^kSubBits linear
/// sub-buckets, so any value is reported within a 1/32 (~3.1%) relative
/// error. Recording is one relaxed atomic increment in the calling
/// thread's shard; nothing is allocated after construction.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;                   // 32 sub-buckets / octave
  static constexpr std::size_t kSubBuckets = 1u << kSubBits;
  static constexpr std::size_t kBuckets = kSubBuckets * (64 - kSubBits + 1);  // 1920
  static constexpr std::size_t kShards = 8;                 // power of two

  Histogram();

  void record(std::uint64_t value) noexcept;

  /// Merged view of every shard. Totals are exact once recording threads
  /// are quiescent; under concurrent recording they are a consistent-enough
  /// sample (relaxed loads, no tearing per bucket).
  struct Snapshot {
    std::vector<std::uint64_t> counts;  // kBuckets entries
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    double mean() const noexcept {
      return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
    }
    /// Value at percentile p (0..100]: the upper bound of the bucket the
    /// p-th sample falls in (≤3.2% above the true value). 0 when empty.
    std::uint64_t value_at(double p) const noexcept;
  };
  Snapshot snapshot() const;

  std::uint64_t count() const noexcept;

  /// Zero every bucket. Callers synchronise with recorders themselves —
  /// meant for quiescent reuse (per-run latency windows, tests).
  void reset() noexcept;

  /// Bucket mapping (exposed for tests).
  static std::size_t bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_upper(std::size_t index) noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts;
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  std::unique_ptr<Shard[]> shards_;
};

/// Point-in-time stats of one histogram (registry snapshots / JSON).
struct HistogramStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;
};

/// Named instrument registry. counter()/gauge()/histogram() get-or-create
/// under a mutex and return references stable for the registry's lifetime;
/// the record path never comes back here.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation site uses.
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    struct GaugeValue {
      std::int64_t value = 0;
      std::int64_t max = 0;
    };
    std::map<std::string, GaugeValue> gauges;
    std::map<std::string, HistogramStats> histograms;

    std::string to_json() const;
  };
  Snapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

  /// Zero every registered instrument (registrations survive). For tests
  /// and per-run windows; callers quiesce recorders first.
  void reset();

 private:
  mutable util::Mutex mu_{util::LockRank::kObsRegistry, "obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_ NONREP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_ NONREP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_ NONREP_GUARDED_BY(mu_);
};

}  // namespace nonrep::obs
