#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <sstream>

namespace nonrep::obs {

namespace {

// Stable per-thread shard slot: threads round-robin over the shard array,
// so the record path is one thread_local read plus one relaxed increment.
std::size_t thread_shard_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kShards;
  return slot;
}

void update_atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t v) noexcept {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram() : shards_(new Shard[kShards]) {
  for (std::size_t s = 0; s < kShards; ++s) {
    for (auto& c : shards_[s].counts) c.store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(value));
  const unsigned shift = msb - kSubBits;
  const std::size_t sub = static_cast<std::size_t>(value >> shift) - kSubBuckets;
  return kSubBuckets * (shift + 1) + sub;
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index < kSubBuckets) return index;
  const std::size_t shift = index / kSubBuckets - 1;
  const std::size_t sub = index % kSubBuckets;
  const std::uint64_t lower =
      (std::uint64_t{kSubBuckets} + sub) << shift;
  return lower + ((std::uint64_t{1} << shift) - 1);
}

void Histogram::record(std::uint64_t value) noexcept {
  Shard& shard = shards_[thread_shard_slot()];
  shard.counts[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  update_atomic_max(shard.max, value);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.counts.assign(kBuckets, 0);
  for (std::size_t s = 0; s < kShards; ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = shard.counts[i].load(std::memory_order_relaxed);
      out.counts[i] += c;
      out.count += c;
    }
    out.sum += shard.sum.load(std::memory_order_relaxed);
    const std::uint64_t m = shard.max.load(std::memory_order_relaxed);
    if (m > out.max) out.max = m;
  }
  return out;
}

std::uint64_t Histogram::Snapshot::value_at(double p) const noexcept {
  if (count == 0) return 0;
  // Rank of the p-th sample, 1-based; ceil so p=50 on 2 samples picks #1.
  const double want = p / 100.0 * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(want));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(counts.size() - 1);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const auto& c : shards_[s].counts) total += c.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (std::size_t s = 0; s < kShards; ++s) {
    for (auto& c : shards_[s].counts) c.store(0, std::memory_order_relaxed);
    shards_[s].sum.store(0, std::memory_order_relaxed);
    shards_[s].max.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives static dtors
  return *instance;
}

GaugeShare::GaugeShare(std::string_view gauge_name)
    : gauge_(Registry::global().gauge(gauge_name)) {}

Counter& Registry::counter(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot out;
  util::MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) {
    out.gauges[name] = Snapshot::GaugeValue{g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    HistogramStats stats;
    stats.count = s.count;
    stats.mean = s.mean();
    stats.p50 = s.value_at(50.0);
    stats.p90 = s.value_at(90.0);
    stats.p99 = s.value_at(99.0);
    stats.p999 = s.value_at(99.9);
    stats.max = s.max;
    out.histograms[name] = stats;
  }
  return out;
}

void Registry::reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << v;
    first = false;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"value\": " << g.value
       << ", \"max\": " << g.max << "}";
    first = false;
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": " << h.count
       << ", \"mean\": " << h.mean << ", \"p50\": " << h.p50 << ", \"p90\": " << h.p90
       << ", \"p99\": " << h.p99 << ", \"p999\": " << h.p999 << ", \"max\": " << h.max
       << "}";
    first = false;
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}";
  return os.str();
}

}  // namespace nonrep::obs
