// Observability subsystem: histogram bucket math and percentile
// correctness against known distributions, multi-thread recorder merge
// (the TSan target for the lock-free record path), gauge high-water
// marks, registry snapshots/JSON, trace spans (nesting, ring bound,
// virtual clock) — and the chain-digest regression: span annotations on
// LogRecords must leave canonical() and the chain byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "container/container.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/world.hpp"
#include "store/evidence_log.hpp"
#include "util/clock.hpp"

namespace {

using namespace nonrep;

TEST(ObsHistogram, BucketMappingExactBelowSubBuckets) {
  for (std::uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(obs::Histogram::bucket_upper(idx), v);
  }
}

TEST(ObsHistogram, BucketUpperBoundsItsValue) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform draw so every octave is exercised.
    const unsigned bits = static_cast<unsigned>(rng() % 63) + 1;
    const std::uint64_t v = rng() & ((std::uint64_t{1} << bits) - 1);
    const std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets);
    const std::uint64_t upper = obs::Histogram::bucket_upper(idx);
    ASSERT_GE(upper, v) << "value " << v << " above its bucket upper bound";
    // Log-linear promise: the reported (upper) value is within 1/32 of v.
    if (v >= obs::Histogram::kSubBuckets) {
      ASSERT_LE(static_cast<double>(upper - v),
                static_cast<double>(v) / 32.0 + 1.0)
          << "value " << v << " bucket " << idx << " upper " << upper;
    }
  }
}

TEST(ObsHistogram, BucketIndexMonotone) {
  // Successive bucket uppers are strictly increasing and map back to
  // their own bucket.
  std::uint64_t prev = 0;
  for (std::size_t i = 1; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t upper = obs::Histogram::bucket_upper(i);
    ASSERT_GT(upper, prev);
    ASSERT_EQ(obs::Histogram::bucket_index(upper), i);
    prev = upper;
  }
}

TEST(ObsHistogram, PercentilesUniformDistribution) {
  obs::Histogram h;
  // 1..100000 uniformly: p50 ~ 50000, p99 ~ 99000, p99.9 ~ 99900.
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100000u);
  EXPECT_EQ(s.max, 100000u);
  // Bucket upper bound reports at most ~3.2% above the true percentile.
  EXPECT_GE(s.value_at(50.0), 50000u);
  EXPECT_LE(s.value_at(50.0), 52000u);
  EXPECT_GE(s.value_at(99.0), 99000u);
  EXPECT_LE(s.value_at(99.0), 103000u);
  EXPECT_GE(s.value_at(99.9), 99900u);
  EXPECT_LE(s.value_at(99.9), 104000u);
  EXPECT_NEAR(s.mean(), 50000.5, 2.0);
}

TEST(ObsHistogram, PercentilesBimodalDistribution) {
  obs::Histogram h;
  // 90% fast (1000), 10% slow (1000000): p50 is fast, p99 is slow — the
  // shape CO-unsafe benches flatten.
  for (int i = 0; i < 9000; ++i) h.record(1000);
  for (int i = 0; i < 1000; ++i) h.record(1000000);
  const auto s = h.snapshot();
  const std::uint64_t p50 = s.value_at(50.0);
  const std::uint64_t p99 = s.value_at(99.0);
  EXPECT_GE(p50, 1000u);
  EXPECT_LE(p50, 1032u);
  EXPECT_GE(p99, 1000000u);
  EXPECT_LE(p99, 1031250u);
}

TEST(ObsHistogram, ValueAtEdgeCases) {
  obs::Histogram h;
  EXPECT_EQ(h.snapshot().value_at(99.0), 0u);  // empty
  h.record(42);
  const auto s = h.snapshot();
  EXPECT_EQ(s.value_at(0.0001), 42u);
  EXPECT_EQ(s.value_at(100.0), 42u);
}

TEST(ObsHistogram, MultiThreadRecorderMerge) {
  // The TSan target: concurrent record() on every shard, then a merged
  // snapshot must account for every sample exactly once (quiescent).
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      std::mt19937_64 rng(100 + t);
      for (int i = 0; i < kPerThread; ++i) h.record(rng() % 1000000);
    });
  }
  for (auto& t : threads) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), s.count);
  std::uint64_t total = 0;
  for (const auto c : s.counts) total += c;
  EXPECT_EQ(total, s.count);
  EXPECT_LT(s.max, 1000000u);
}

TEST(ObsHistogram, ResetZeroes) {
  obs::Histogram h;
  h.record(5);
  h.record(500);
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(ObsGauge, TracksValueAndMax) {
  obs::Gauge g;
  g.set(5);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 5);
  g.add(10);
  EXPECT_EQ(g.value(), 13);
  EXPECT_EQ(g.max(), 13);
  g.add(-4);
  EXPECT_EQ(g.value(), 9);
  EXPECT_EQ(g.max(), 13);
  g.reset_max();
  EXPECT_EQ(g.max(), 9);
}

TEST(ObsGauge, ConcurrentAddBalances) {
  obs::Gauge g;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 10000; ++i) {
        g.add(1);
        g.add(-1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.max(), 1);
  EXPECT_LE(g.max(), kThreads);
}

// Every per-party table that grows with traffic exports its size as a
// process-wide gauge: each live table adds what it holds and takes it back
// on clear or destruction, so a process that builds and drops fleets (as
// the benchmark does) returns to where it started.
TEST(ObsGauge, RetainedTableGaugesTrackTablesAndTeardown) {
  auto& reg = obs::Registry::global();
  const char* const names[] = {"store.log_records", "store.log_payload_bytes",
                               "store.state_bytes", "container.completed_runs",
                               "pki.object_memo_entries"};
  std::map<std::string, std::int64_t> base;
  for (const char* name : names) base[name] = reg.gauge(name).value();
  auto delta = [&](const char* name) { return reg.gauge(name).value() - base[name]; };

  {
    scenario::World world(7, /*rsa_bits=*/512);
    auto& a = world.add_party("a");
    auto& b = world.add_party("b");
    container::Container cont;
    auto bean = std::make_shared<container::Component>();
    bean->bind("echo", [](const container::Invocation& inv) -> Result<Bytes> {
      return inv.arguments;
    });
    cont.deploy(ServiceUri("svc://b/echo"), bean, {});

    constexpr int kOps = 6;
    std::int64_t subject_bytes = 0;
    for (int i = 0; i < kOps; ++i) {
      const Bytes subject = to_bytes("subject-" + std::to_string(i));
      subject_bytes += static_cast<std::int64_t>(subject.size());
      auto token = a.evidence->issue(core::EvidenceType::kNroRequest,
                                     RunId("run-" + std::to_string(i)), subject);
      ASSERT_TRUE(token.ok());
      ASSERT_TRUE(b.evidence->accept(token.value(), subject).ok());
      container::Invocation inv;
      inv.service = ServiceUri("svc://b/echo");
      inv.method = "echo";
      inv.arguments = subject;
      inv.context[container::kRunIdContextKey] = "run-" + std::to_string(i);
      cont.invoke(inv);
      cont.invoke(inv);  // a replay retains nothing new
    }

    std::int64_t payload_bytes = 0;
    for (const auto* log : {a.log.get(), b.log.get()}) {
      for (const auto& r : log->records()) {
        payload_bytes += static_cast<std::int64_t>(r.payload.size());
      }
    }
    EXPECT_EQ(delta("store.log_records"),
              static_cast<std::int64_t>(a.log->size() + b.log->size()));
    EXPECT_EQ(delta("store.log_payload_bytes"), payload_bytes);
    EXPECT_EQ(delta("store.state_bytes"), 2 * subject_bytes);  // a on issue, b on accept
    EXPECT_EQ(delta("container.completed_runs"), kOps);
    EXPECT_EQ(delta("pki.object_memo_entries"),
              static_cast<std::int64_t>(a.credentials->memo_size() +
                                        b.credentials->memo_size()));
    EXPECT_EQ(b.credentials->memo_size(), static_cast<std::size_t>(kOps));

    b.credentials->clear_caches();  // a clear gives its entries back at once
    EXPECT_EQ(delta("pki.object_memo_entries"),
              static_cast<std::int64_t>(a.credentials->memo_size()));
  }

  for (const char* name : names) EXPECT_EQ(delta(name), 0) << name;
}

TEST(ObsRegistry, GetOrCreateReturnsStableInstruments) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.count");
  obs::Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(static_cast<void*>(&reg.gauge("x.count")), static_cast<void*>(&a));
}

TEST(ObsRegistry, ConcurrentRegistrationAndRecording) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        reg.counter("shared.count").add();
        reg.histogram("shared.hist").record(static_cast<std::uint64_t>(i));
        reg.gauge("shared.gauge").set(i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("shared.count"), 8000u);
  EXPECT_EQ(snap.histograms.at("shared.hist").count, 8000u);
}

TEST(ObsRegistry, SnapshotJsonWellFormed) {
  obs::Registry reg;
  reg.counter("a.ops").add(7);
  reg.gauge("b.depth").set(3);
  reg.histogram("c.lat_ns").record(1000);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"a.ops\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b.depth\": {\"value\": 3, \"max\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsRegistry, ResetClearsValuesKeepsRegistrations) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("r.ops");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&reg.counter("r.ops"), &c);
}

TEST(ObsTrace, SpanNestingAndCurrentId) {
  obs::Tracer tracer(16);
  EXPECT_EQ(obs::current_span_id(), 0u);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::Span outer("outer", "run-1", "org:a", tracer);
    outer_id = outer.id();
    EXPECT_EQ(obs::current_span_id(), outer_id);
    {
      obs::Span inner("inner", "run-1", "org:a", tracer);
      inner_id = inner.id();
      EXPECT_EQ(obs::current_span_id(), inner_id);
    }
    EXPECT_EQ(obs::current_span_id(), outer_id);
  }
  EXPECT_EQ(obs::current_span_id(), 0u);
  EXPECT_EQ(tracer.finished(), 2u);

  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first and parents under outer.
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].id, outer_id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
}

TEST(ObsTrace, BoundedRingOverwritesOldest) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    obs::Span span("s" + std::to_string(i), "", "", tracer);
  }
  EXPECT_EQ(tracer.finished(), 10u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: the four survivors are s6..s9.
  EXPECT_EQ(spans.front().name, "s6");
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(ObsTrace, VirtualClockStampsSpans) {
  obs::Tracer tracer(8);
  auto clock = std::make_shared<SimClock>(5000);
  tracer.set_clock(clock);
  {
    obs::Span span("timed", "", "", tracer);
    clock->advance(250);
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].vstart, 5000u);
  EXPECT_EQ(spans[0].vend, 5250u);
  tracer.set_clock(nullptr);
  {
    obs::Span span("untimed", "", "", tracer);
  }
  EXPECT_EQ(tracer.snapshot().back().vstart, 0u);
}

TEST(ObsTrace, JsonExportEscapesAndLists) {
  obs::Tracer tracer(8);
  {
    obs::Span span("quote\"name", "run-1", "org:a", tracer);
  }
  const std::string json = tracer.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("quote\\\"name"), std::string::npos);
  EXPECT_NE(json.find("\"run\": \"run-1\""), std::string::npos);
}

TEST(ObsTrace, ConcurrentSpansKeepPerThreadNesting) {
  obs::Tracer tracer(1024);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 50; ++i) {
        obs::Span outer("outer", "", "", tracer);
        obs::Span inner("inner", "", "", tracer);
        // current span must be this thread's inner, not another thread's.
        EXPECT_EQ(obs::current_span_id(), inner.id());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.finished(), static_cast<std::uint64_t>(kThreads) * 100);
  for (const auto& s : tracer.snapshot()) {
    if (s.name == "inner") EXPECT_NE(s.parent, 0u);
  }
}

// The PR-6 idiom regression, extended to spans: annotations must never
// reach canonical() or the persisted encoding, so chain digests are
// byte-identical whether or not a span was open during append.
TEST(ObsTrace, SpanAnnotationLeavesChainDigestsIdentical) {
  auto clock = std::make_shared<SimClock>(100);
  auto build_log = [&](bool with_span) {
    store::EvidenceLog log(std::make_unique<store::MemoryLogBackend>(), clock);
    for (int i = 0; i < 4; ++i) {
      if (with_span) {
        obs::Span span("fx.invoke", "run-x", "org:a");
        log.append(RunId("run-x"), "token.nro_request", to_bytes("payload-" + std::to_string(i)));
      } else {
        log.append(RunId("run-x"), "token.nro_request", to_bytes("payload-" + std::to_string(i)));
      }
    }
    return log.records();
  };

  const auto with_span = build_log(true);
  const auto without_span = build_log(false);
  ASSERT_EQ(with_span.size(), without_span.size());
  for (std::size_t i = 0; i < with_span.size(); ++i) {
    // The annotation itself differs...
    EXPECT_NE(with_span[i].span, 0u);
    EXPECT_EQ(without_span[i].span, 0u);
    // ...but every canonical byte, chain digest and persisted encoding
    // is identical.
    EXPECT_EQ(with_span[i].canonical(), without_span[i].canonical());
    EXPECT_EQ(with_span[i].chain, without_span[i].chain);
    EXPECT_EQ(store::encode_log_record(with_span[i]),
              store::encode_log_record(without_span[i]));
  }

  // And a decode round-trip never resurrects a span id.
  const Bytes encoded = store::encode_log_record(with_span[0]);
  auto decoded = store::decode_log_record(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().span, 0u);
}

}  // namespace
