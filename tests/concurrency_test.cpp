// The concurrent party runtime, end to end: the worker pool itself, the
// multi-threaded many-party invocation scenario over the executor-backed
// network, and the batched evidence-verification fan-out. These are the
// suites the TSan CI job exists for.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/baseline.hpp"
#include "core/dispute.hpp"
#include "core/nr_interceptor.hpp"
#include "tests/common.hpp"
#include "util/thread_pool.hpp"

namespace nonrep {
namespace {

using namespace nonrep::core;
using container::DeploymentDescriptor;
using container::Invocation;

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.executed(), 100u);
}

TEST(ThreadPoolTest, AsyncReturnsValues) {
  util::ThreadPool pool(2);
  auto a = pool.async([] { return 21; });
  auto b = pool.async([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 21);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] { count.fetch_add(1); });
    }
    // No wait_idle: shutdown itself must not drop queued work.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(301);
  util::parallel_for(&pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Null pool: serial fallback, same coverage.
  std::vector<int> serial(17, 0);
  util::parallel_for(nullptr, serial.size(), [&](std::size_t i) { ++serial[i]; });
  for (int v : serial) EXPECT_EQ(v, 1);
}

// ---- Many-party concurrent invocation scenario ----

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

TEST(ConcurrentRuntimeTest, ManyPartyInvocationsAcrossThreads) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;

  test::TestWorld world(/*seed=*/2026);
  auto& server = world.add_party("server");
  std::vector<test::Party*> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(&world.add_party("client" + std::to_string(i)));
  }

  container::Container cont;
  cont.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
  auto nr_server = install_nr_server(*server.coordinator, cont);

  auto pool = std::make_shared<util::ThreadPool>(4);
  world.network.set_executor(pool);
  std::thread pump([&] { world.network.run_live(); });

  std::atomic<int> ok{0};
  std::atomic<int> complete{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      DirectInvocationClient handler(*clients[static_cast<std::size_t>(c)]->coordinator);
      for (int i = 0; i < kPerClient; ++i) {
        Invocation inv;
        inv.service = ServiceUri("svc://server/echo");
        inv.method = "echo";
        inv.arguments = to_bytes("payload-" + std::to_string(c) + "-" + std::to_string(i));
        inv.caller = clients[static_cast<std::size_t>(c)]->id;
        auto result = handler.invoke("server", inv);
        if (result.ok() && to_string(result.payload) ==
                               "payload-" + std::to_string(c) + "-" + std::to_string(i)) {
          ok.fetch_add(1);
        }
        if (handler.last_run_evidence().complete_for_client()) complete.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Let the tail land (final NRR_resp one-ways + ACKs), then stop the pump.
  world.network.drain();
  world.network.stop_live();
  pump.join();

  const int total = kClients * kPerClient;
  EXPECT_EQ(ok.load(), total);
  EXPECT_EQ(complete.load(), total);

  // The server holds the full four-token trail for every run: NRO_req,
  // NRR_req, NRO_resp, NRR_resp.
  EXPECT_EQ(server.log->size(), static_cast<std::size_t>(4 * total));
  EXPECT_TRUE(server.log->verify_chain().ok());
  for (auto* client : clients) {
    EXPECT_EQ(client->log->size(), static_cast<std::size_t>(4 * kPerClient));
    EXPECT_TRUE(client->log->verify_chain().ok());
  }

  // Every token the server logged verifies — batched, across the pool.
  std::vector<EvidenceCheck> checks;
  for (const auto& rec : server.log->records()) {
    auto token = EvidenceToken::decode(rec.payload);
    ASSERT_TRUE(token.ok());
    auto subject = server.states->get(token.value().subject);
    ASSERT_TRUE(subject.ok());
    checks.push_back(EvidenceCheck{std::move(token).take(), std::move(subject).take()});
  }
  const auto verdicts = server.evidence->verify_batch(checks, pool.get());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_TRUE(verdicts[i].ok()) << i << ": " << verdicts[i].error().code;
  }

  world.network.set_executor(nullptr);
}

TEST(ConcurrentRuntimeTest, HandlerRepliesFromContinuation) {
  // server serves a request by consulting a backend. The backend's answer
  // arrives on server's own strand, so a blocking call there could never
  // be answered: it fails at once, and the handler forwards with
  // call_async and answers from the continuation instead.
  auto clock = std::make_shared<SimClock>(0);
  net::SimNetwork network(clock, /*seed=*/5);
  auto pool = std::make_shared<util::ThreadPool>(3);
  network.set_executor(pool);

  net::RpcEndpoint backend(network, "backend");
  backend.set_request_handler([](const net::Address&, BytesView) { return to_bytes("deep"); });
  net::RpcEndpoint server(network, "server");
  std::string blocking_error;
  server.set_request_handler([&](const net::Address&, BytesView) {
    auto blocked = server.call("backend", to_bytes("q"), 2000);
    blocking_error = blocked.ok() ? "none" : blocked.error().code;
    auto reply = server.defer_reply();
    server.call_async("backend", to_bytes("q"), 2000, [reply](Result<Bytes> inner) {
      reply(inner.ok() ? inner.value() : to_bytes("fail"));
    });
    return to_bytes("discarded");
  });
  net::RpcEndpoint client(network, "client");

  std::thread pump([&] { network.run_live(); });
  auto result = client.call("server", to_bytes("outer"), 5000);
  network.drain();
  network.stop_live();
  pump.join();

  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result.value()), "deep");
  EXPECT_EQ(blocking_error, "rpc.blocking_in_upcall");
  network.set_executor(nullptr);
}

TEST(ConcurrentRuntimeTest, ContinuationsChainAndTimeOutOnTheStrand) {
  // One request answered after three calls, each made from the previous
  // call's continuation. The last backend never answers: its timeout
  // continuation runs as an upcall of server's strand on a pool worker,
  // never on the pump, and no two of server's upcalls overlap.
  auto clock = std::make_shared<SimClock>(0);
  net::SimNetwork network(clock, /*seed=*/6);
  auto pool = std::make_shared<util::ThreadPool>(3);
  network.set_executor(pool);

  net::RpcEndpoint backend_a(network, "backend-a");
  backend_a.set_request_handler([](const net::Address&, BytesView) { return to_bytes("a"); });
  net::RpcEndpoint backend_b(network, "backend-b");
  backend_b.set_request_handler([](const net::Address&, BytesView) { return to_bytes("b"); });
  net::RpcEndpoint silent(network, "silent");
  silent.set_request_handler([&](const net::Address&, BytesView) {
    (void)silent.defer_reply();  // never answered
    return Bytes{};
  });
  net::RpcEndpoint server(network, "server");

  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  std::atomic<bool> timeout_in_upcall{false};
  std::thread::id timeout_thread;
  auto enter = [&] {
    if (inside.fetch_add(1) != 0) overlaps.fetch_add(1);
  };
  auto leave = [&] { inside.fetch_sub(1); };
  server.set_request_handler([&](const net::Address&, BytesView) {
    enter();
    auto reply = server.defer_reply();
    server.call_async("backend-a", to_bytes("q"), 2000, [&, reply](Result<Bytes> first) {
      enter();
      Bytes out = first.ok() ? first.value() : to_bytes("?");
      server.call_async("backend-b", to_bytes("q"), 2000, [&, reply, out](Result<Bytes> second) {
        enter();
        Bytes both = out;
        append(both, second.ok() ? second.value() : to_bytes("?"));
        server.call_async("silent", to_bytes("q"), 300,
                          [&, reply, both](Result<Bytes> third) mutable {
                            enter();
                            timeout_in_upcall = network.in_upcall();
                            timeout_thread = std::this_thread::get_id();
                            const std::string how = third.ok() ? "answer" : third.error().code;
                            append(both, to_bytes("+" + how));
                            reply(both);
                            leave();
                          });
        leave();
      });
      leave();
    });
    leave();
    return Bytes{};
  });
  net::RpcEndpoint client(network, "client");

  std::thread::id pump_thread;
  std::thread pump([&] {
    pump_thread = std::this_thread::get_id();
    network.run_live();
  });
  auto result = client.call("server", to_bytes("outer"), 5000);
  network.drain();
  network.stop_live();
  pump.join();

  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result.value()), "ab+rpc.timeout");
  EXPECT_TRUE(timeout_in_upcall.load());
  EXPECT_NE(timeout_thread, pump_thread);
  EXPECT_EQ(overlaps.load(), 0);
  network.set_executor(nullptr);
}

// ---- Batched evidence verification ----

struct BatchVerifyFixture : ::testing::Test {
  BatchVerifyFixture() : world(7), issuer(&world.add_party("issuer")) {
    const RunId run = issuer->evidence->new_run();
    for (int i = 0; i < 24; ++i) {
      const Bytes subject = to_bytes("subject-" + std::to_string(i));
      auto token = issuer->evidence->issue(EvidenceType::kNroRequest, run, subject);
      EXPECT_TRUE(token.ok());
      items.push_back(core::EvidenceCheck{std::move(token).take(), subject});
    }
  }

  test::TestWorld world;
  test::Party* issuer;
  std::vector<core::EvidenceCheck> items;
};

TEST_F(BatchVerifyFixture, PooledVerdictsMatchSequential) {
  // Sprinkle in failures: a wrong subject and a corrupted signature.
  items[5].subject = to_bytes("not what was signed");
  items[11].token.signature[0] ^= 0x01;

  const auto sequential = issuer->evidence->verify_batch(items, nullptr);
  util::ThreadPool pool(4);
  const auto pooled = issuer->evidence->verify_batch(items, &pool);

  ASSERT_EQ(sequential.size(), items.size());
  ASSERT_EQ(pooled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(sequential[i].ok(), pooled[i].ok()) << i;
    if (!sequential[i].ok()) {
      EXPECT_EQ(sequential[i].error().code, pooled[i].error().code) << i;
    }
  }
  EXPECT_FALSE(pooled[5].ok());
  EXPECT_FALSE(pooled[11].ok());
}

TEST_F(BatchVerifyFixture, ParallelAdjudicationMatchesSequential) {
  items[3].token.signature.back() ^= 0x80;  // one forgery in the bundle
  const RunId run = items[0].token.run;
  core::Adjudicator judge(*issuer->credentials, world.clock);

  const auto serial = judge.adjudicate(run, items);
  util::ThreadPool pool(4);
  const auto pooled = judge.adjudicate(run, items, &pool);

  EXPECT_EQ(serial.client_sent_request, pooled.client_sent_request);
  EXPECT_EQ(serial.rejected.size(), pooled.rejected.size());
  ASSERT_EQ(pooled.rejected.size(), 1u);
  EXPECT_EQ(pooled.rejected[0].encode(), items[3].token.encode());
}

}  // namespace
}  // namespace nonrep
