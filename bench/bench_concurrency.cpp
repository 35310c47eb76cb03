// Concurrency scaling curve (1/2/4/8 worker threads).
//
// Two workloads over the concurrent party runtime:
//   BM_BatchVerify            — batched evidence verification fanned across
//                               a util::ThreadPool (the log-audit /
//                               dispute-path shape): N RSA signature checks
//                               per batch, embarrassingly parallel.
//   BM_ConcurrentInvocation   — full NrDirect four-token invocations,
//                               client threads driving disjoint
//                               client/server party pairs over the
//                               executor-backed SimNetwork with one pump.
// items_per_second is the figure of merit; compare across /threads:N to
// read the scaling. On a single-core runner the curve is flat — CI runs it
// on multi-core hosts (run_benches.sh prints the table).
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "core/dispute.hpp"
#include "core/nr_interceptor.hpp"
#include "obs/metrics.hpp"
#include "tests/common.hpp"
#include "util/thread_pool.hpp"

namespace {

// The ThreadPool publishes its queue depth and active-worker count as obs
// gauges; each benchmark resets the peaks before its timing loop and
// exports them as counters so run_benches.sh can print the pool columns.
struct PoolGauges {
  nonrep::obs::Gauge& queue = nonrep::obs::Registry::global().gauge("pool.queue_depth");
  nonrep::obs::Gauge& active = nonrep::obs::Registry::global().gauge("pool.active_workers");
  void reset_peaks() {
    queue.reset_max();
    active.reset_max();
  }
  void export_peaks(benchmark::State& state) {
    state.counters["pool_queue_peak"] = static_cast<double>(queue.max());
    state.counters["pool_active_peak"] = static_cast<double>(active.max());
  }
};

using namespace nonrep;
using namespace nonrep::core;
using container::DeploymentDescriptor;
using container::Invocation;

// ---- Batched evidence verification ----

struct BatchRig {
  static constexpr int kBatch = 64;

  BatchRig() : world(/*seed=*/404, /*rsa_bits=*/1024), issuer(&world.add_party("issuer")) {
    const RunId run = issuer->evidence->new_run();
    for (int i = 0; i < kBatch; ++i) {
      const Bytes subject = to_bytes("audited-state-" + std::to_string(i));
      auto token = issuer->evidence->issue(EvidenceType::kNroRequest, run, subject);
      items.push_back(EvidenceCheck{std::move(token).take(), subject});
    }
  }

  test::TestWorld world;
  test::Party* issuer;
  std::vector<EvidenceCheck> items;
};

void BM_BatchVerify(benchmark::State& state) {
  static BatchRig rig;  // one keygen + token build for every thread count
  const auto threads = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(threads);
  util::ThreadPool* pool_arg = threads > 1 ? &pool : nullptr;
  PoolGauges gauges;
  gauges.reset_peaks();

  std::size_t verified = 0;
  for (auto _ : state) {
    const auto verdicts = rig.issuer->evidence->verify_batch(rig.items, pool_arg);
    for (const auto& v : verdicts) {
      if (!v.ok()) state.SkipWithError("verdict flipped");
    }
    verified += verdicts.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(verified));
  state.counters["batch"] = BatchRig::kBatch;
  gauges.export_peaks(state);
}
BENCHMARK(BM_BatchVerify)
    ->ArgName("threads")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- Concurrent NrDirect invocations over the executor-backed network ----

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

struct Pair {
  test::Party* client;
  test::Party* server;
  std::unique_ptr<container::Container> container;
  std::shared_ptr<DirectInvocationServer> nr;
};

struct InvocationRig {
  explicit InvocationRig(int pairs) : world(/*seed=*/808) {
    for (int i = 0; i < pairs; ++i) {
      Pair p;
      p.server = &world.add_party("server" + std::to_string(i));
      p.client = &world.add_party("client" + std::to_string(i));
      p.container = std::make_unique<container::Container>();
      p.container->deploy(ServiceUri("svc://server" + std::to_string(i) + "/echo"),
                          make_echo(), DeploymentDescriptor{});
      p.nr = install_nr_server(*p.server->coordinator, *p.container);
      this->pairs.push_back(std::move(p));
    }
  }

  test::TestWorld world;
  std::vector<Pair> pairs;
};

void BM_ConcurrentInvocation_NrDirect(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPerThreadPerIter = 2;

  InvocationRig rig(threads);
  auto pool = std::make_shared<util::ThreadPool>(static_cast<std::size_t>(threads) + 1);
  rig.world.network.set_executor(pool);
  std::thread pump([&] { rig.world.network.run_live(); });
  PoolGauges gauges;
  gauges.reset_peaks();

  std::uint64_t completed = 0;
  std::atomic<int> failures{0};
  for (auto _ : state) {
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      drivers.emplace_back([&rig, &failures, t] {
        Pair& p = rig.pairs[static_cast<std::size_t>(t)];
        DirectInvocationClient handler(*p.client->coordinator);
        for (int i = 0; i < kPerThreadPerIter; ++i) {
          Invocation inv;
          inv.service = ServiceUri("svc://server" + std::to_string(t) + "/echo");
          inv.method = "echo";
          inv.arguments = Bytes(64, 0x42);
          inv.caller = p.client->id;
          auto result = handler.invoke(p.server->address, inv);
          if (!result.ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& d : drivers) d.join();
    completed += static_cast<std::uint64_t>(threads) * kPerThreadPerIter;
  }
  if (failures.load() != 0) state.SkipWithError("invocation failed");

  rig.world.network.drain();
  rig.world.network.stop_live();
  pump.join();
  rig.world.network.set_executor(nullptr);

  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["parties"] = 2 * threads;
  gauges.export_peaks(state);
}
BENCHMARK(BM_ConcurrentInvocation_NrDirect)
    ->ArgName("threads")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
