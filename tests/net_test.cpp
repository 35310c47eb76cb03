#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::net {
namespace {

struct NetFixture : ::testing::Test {
  NetFixture() : clock(std::make_shared<SimClock>(0)), net(clock, /*seed=*/7) {}
  std::shared_ptr<SimClock> clock;
  SimNetwork net;
};

TEST_F(NetFixture, DeliversWithLatency) {
  std::vector<std::string> got;
  net.register_endpoint("b", [&](const Address& from, BytesView payload) {
    got.push_back(from + ":" + to_string(payload));
  });
  net.set_default_link(LinkConfig{.latency = 10});
  net.send("a", "b", to_bytes("hi"));
  EXPECT_TRUE(got.empty());
  net.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "a:hi");
  EXPECT_EQ(clock->now(), 10u);
}

TEST_F(NetFixture, OrdersByDeliveryTime) {
  std::vector<std::string> got;
  net.register_endpoint("x", [&](const Address&, BytesView p) {
    got.push_back(to_string(p));
  });
  net.set_link("slow", "x", LinkConfig{.latency = 100});
  net.set_link("fast", "x", LinkConfig{.latency = 1});
  net.send("slow", "x", to_bytes("second"));
  net.send("fast", "x", to_bytes("first"));
  net.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
}

TEST_F(NetFixture, FifoTieBreakIsDeterministic) {
  std::vector<std::string> got;
  net.register_endpoint("x", [&](const Address&, BytesView p) {
    got.push_back(to_string(p));
  });
  for (int i = 0; i < 5; ++i) net.send("a", "x", to_bytes(std::to_string(i)));
  net.run();
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST_F(NetFixture, DropsPerProbability) {
  int delivered = 0;
  net.register_endpoint("b", [&](const Address&, BytesView) { ++delivered; });
  net.set_link("a", "b", LinkConfig{.latency = 1, .drop = 0.5});
  for (int i = 0; i < 1000; ++i) net.send("a", "b", to_bytes("x"));
  net.run();
  EXPECT_GT(delivered, 400);
  EXPECT_LT(delivered, 600);
  EXPECT_EQ(net.stats().dropped + net.stats().delivered, 1000u);
}

TEST_F(NetFixture, DuplicatesPerProbability) {
  int delivered = 0;
  net.register_endpoint("b", [&](const Address&, BytesView) { ++delivered; });
  net.set_link("a", "b", LinkConfig{.latency = 1, .duplicate = 1.0});
  for (int i = 0; i < 10; ++i) net.send("a", "b", to_bytes("x"));
  net.run();
  EXPECT_EQ(delivered, 20);
}

TEST_F(NetFixture, PartitionBlocksBothDirections) {
  int delivered = 0;
  net.register_endpoint("a", [&](const Address&, BytesView) { ++delivered; });
  net.register_endpoint("b", [&](const Address&, BytesView) { ++delivered; });
  net.set_partitioned("a", "b", true);
  net.send("a", "b", to_bytes("x"));
  net.send("b", "a", to_bytes("y"));
  net.run();
  EXPECT_EQ(delivered, 0);
  net.set_partitioned("a", "b", false);
  net.send("a", "b", to_bytes("x"));
  net.run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetFixture, UnknownEndpointSilentlyDropped) {
  net.send("a", "ghost", to_bytes("x"));
  EXPECT_NO_FATAL_FAILURE(net.run());
}

TEST_F(NetFixture, TimersFireInOrder) {
  std::vector<int> order;
  net.schedule(30, [&] { order.push_back(3); });
  net.schedule(10, [&] { order.push_back(1); });
  net.schedule(20, [&] { order.push_back(2); });
  net.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock->now(), 30u);
}

TEST_F(NetFixture, RunUntilPredicate) {
  int count = 0;
  net.register_endpoint("b", [&](const Address&, BytesView) { ++count; });
  for (int i = 0; i < 10; ++i) net.send("a", "b", to_bytes("x"));
  net.run_until([&] { return count >= 3; });
  EXPECT_EQ(count, 3);
  net.run();
  EXPECT_EQ(count, 10);
}

TEST_F(NetFixture, StatsTracked) {
  net.register_endpoint("b", [](const Address&, BytesView) {});
  net.send("a", "b", Bytes(100, 0));
  net.run();
  EXPECT_EQ(net.stats().sent, 1u);
  EXPECT_EQ(net.stats().delivered, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 100u);
  net.reset_stats();
  EXPECT_EQ(net.stats().sent, 0u);
}

TEST_F(NetFixture, DeterministicAcrossRuns) {
  // Same seed => same drop pattern.
  auto run_once = [](std::uint64_t seed) {
    auto clk = std::make_shared<SimClock>(0);
    SimNetwork n(clk, seed);
    std::vector<int> delivered;
    n.register_endpoint("b", [&](const Address&, BytesView p) {
      delivered.push_back(static_cast<int>(p[0]));
    });
    n.set_link("a", "b", LinkConfig{.latency = 1, .drop = 0.4});
    for (int i = 0; i < 50; ++i) n.send("a", "b", Bytes{static_cast<std::uint8_t>(i)});
    n.run();
    return delivered;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

// ---- ReliableEndpoint ----

struct ReliableFixture : NetFixture {
  ReliableFixture()
      : a(net, "a", ReliableConfig{.retry_interval = 20, .max_retries = 30}),
        b(net, "b", ReliableConfig{.retry_interval = 20, .max_retries = 30}) {}
  ReliableEndpoint a;
  ReliableEndpoint b;
};

TEST_F(ReliableFixture, DeliversExactlyOnceOnCleanLink) {
  int count = 0;
  b.set_handler([&](const Address&, BytesView) { ++count; });
  a.send("b", to_bytes("m"));
  net.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(a.retransmissions(), 0u);
}

TEST_F(ReliableFixture, RetransmitsThroughLoss) {
  int count = 0;
  b.set_handler([&](const Address&, BytesView) { ++count; });
  net.set_link("a", "b", LinkConfig{.latency = 1, .drop = 0.6});
  net.set_link("b", "a", LinkConfig{.latency = 1, .drop = 0.6});
  for (int i = 0; i < 20; ++i) a.send("b", to_bytes("m" + std::to_string(i)));
  net.run();
  EXPECT_EQ(count, 20);  // eventual delivery (assumption 2)
  EXPECT_GT(a.retransmissions(), 0u);
}

TEST_F(ReliableFixture, DedupSuppressesDuplicateDelivery) {
  int count = 0;
  b.set_handler([&](const Address&, BytesView) { ++count; });
  net.set_link("a", "b", LinkConfig{.latency = 1, .duplicate = 1.0});
  a.send("b", to_bytes("m"));
  net.run();
  EXPECT_EQ(count, 1);
}

TEST_F(ReliableFixture, LostAckHealedByRetransmit) {
  int count = 0;
  b.set_handler([&](const Address&, BytesView) { ++count; });
  net.set_link("b", "a", LinkConfig{.latency = 1, .drop = 0.8});  // ACKs lossy
  a.send("b", to_bytes("m"));
  net.run();
  EXPECT_EQ(count, 1);  // delivered once despite many resends
}

TEST_F(ReliableFixture, GivesUpAfterBoundedRetries) {
  net.set_partitioned("a", "b", true);
  a.send("b", to_bytes("m"));
  net.run();
  EXPECT_EQ(a.gave_up(), 1u);
}

// One sender interleaves messages to two receivers over lossy, duplicating
// links (data and ACKs alike). Ids are numbered per destination, and each
// receiver's dedup state is a mark plus the ids delivered above it.
class ReliableDedupSeeds : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ReliableDedupSeeds() : clock(std::make_shared<SimClock>(0)), net(clock, GetParam()) {}
  std::shared_ptr<SimClock> clock;
  SimNetwork net;
};

TEST_P(ReliableDedupSeeds, InterleavedSendsUpcallExactlyOnceAndStaleRetransmitDropped) {
  const ReliableConfig config{.retry_interval = 20, .max_retries = 40};
  ReliableEndpoint a(net, "a", config);
  ReliableEndpoint b(net, "b", config);
  ReliableEndpoint c(net, "c", config);
  const LinkConfig lossy{.latency = 3, .drop = 0.3, .duplicate = 0.3};
  for (const char* peer : {"b", "c"}) {
    net.set_link("a", peer, lossy);
    net.set_link(peer, "a", lossy);
  }
  std::map<std::string, int> upcalls;
  auto record = [&](const Address& from, BytesView p) { ++upcalls[from + ">" + to_string(p)]; };
  b.set_handler(record);
  c.set_handler(record);

  constexpr int kPerReceiver = 40;
  for (int i = 0; i < kPerReceiver; ++i) {
    a.send("b", to_bytes("b" + std::to_string(i)));
    a.send("c", to_bytes("c" + std::to_string(i)));
  }
  net.run();

  ASSERT_EQ(a.gave_up(), 0u);
  EXPECT_GT(a.retransmissions(), 0u);
  EXPECT_GT(net.stats().duplicated, 0u);
  ASSERT_EQ(upcalls.size(), 2u * kPerReceiver);
  for (const auto& [message, count] : upcalls) EXPECT_EQ(count, 1) << message;
  // Drained: no un-ACKed send, and every receiver's mark covers its link.
  EXPECT_EQ(a.per_message_entries(), 0u);
  EXPECT_EQ(b.per_message_entries(), 0u);
  EXPECT_EQ(c.per_message_entries(), 0u);

  // A late retransmit of an id the mark has passed (frame: u8 data type,
  // u64 id, payload) is ACKed again but never upcalled.
  BinaryWriter stale;
  stale.u8(1);
  stale.u64(kPerReceiver / 2);
  stale.bytes(to_bytes("stale"));
  net.set_link("a", "b", LinkConfig{.latency = 3});
  net.send("a", "b", std::move(stale).take());
  net.run();
  EXPECT_EQ(upcalls.count("a>stale"), 0u);
  EXPECT_EQ(upcalls.size(), 2u * kPerReceiver);
  EXPECT_EQ(b.per_message_entries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableDedupSeeds, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- RpcEndpoint ----

struct RpcFixture : NetFixture {
  RpcFixture() : client(net, "client"), server(net, "server") {}
  RpcEndpoint client;
  RpcEndpoint server;
};

TEST_F(RpcFixture, CallRoundTrip) {
  server.set_request_handler([](const Address&, BytesView req) {
    Bytes reply = to_bytes("echo:");
    append(reply, req);
    return reply;
  });
  auto result = client.call("server", to_bytes("ping"), 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result.value()), "echo:ping");
}

TEST_F(RpcFixture, CallTimesOutWhenPartitioned) {
  net.set_partitioned("client", "server", true);
  auto result = client.call("server", to_bytes("ping"), 200);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "rpc.timeout");
  EXPECT_GE(clock->now(), 200u);
}

TEST_F(RpcFixture, NotifyDelivered) {
  std::vector<std::string> got;
  server.set_notify_handler([&](const Address& from, BytesView p) {
    got.push_back(from + "/" + to_string(p));
  });
  client.notify("server", to_bytes("oneway"));
  net.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "client/oneway");
}

TEST_F(RpcFixture, DeferredReplyFromHandler) {
  // Classic mode: the handler runs inside the caller's pump. A blocking
  // call there is refused instead of pumping again; the handler answers
  // from its call_async continuation, which the same pump later runs.
  RpcEndpoint backend(net, "backend");
  backend.set_request_handler([](const Address&, BytesView) { return to_bytes("deep"); });
  std::string blocking_error;
  server.set_request_handler([&](const Address&, BytesView) {
    auto blocked = server.call("backend", to_bytes("q"), 500);
    blocking_error = blocked.ok() ? "none" : blocked.error().code;
    EXPECT_EQ(net.run(), 0u);  // nor is the network pumped from within
    auto reply = server.defer_reply();
    EXPECT_TRUE(server.reply_deferred());
    server.call_async("backend", to_bytes("q"), 500, [&, reply](Result<Bytes> inner) {
      EXPECT_TRUE(net.in_upcall());
      reply(inner.ok() ? inner.value() : to_bytes("fail"));
    });
    return to_bytes("discarded");
  });
  auto result = client.call("server", to_bytes("outer"), 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result.value()), "deep");
  EXPECT_EQ(blocking_error, "rpc.blocking_in_upcall");
  EXPECT_FALSE(net.in_upcall());
}

TEST_F(RpcFixture, CallSurvivesLoss) {
  server.set_request_handler([](const Address&, BytesView) { return to_bytes("ok"); });
  net.set_link("client", "server", LinkConfig{.latency = 1, .drop = 0.5});
  net.set_link("server", "client", LinkConfig{.latency = 1, .drop = 0.5});
  for (int i = 0; i < 10; ++i) {
    auto result = client.call("server", to_bytes("r" + std::to_string(i)), 5000);
    ASSERT_TRUE(result.ok()) << i;
  }
}

// ---- Concurrent dispatch (executor-backed network) ----

struct ConcurrentNetFixture : NetFixture {
  ConcurrentNetFixture() : pool(std::make_shared<util::ThreadPool>(4)) {
    net.set_executor(pool);
  }
  ~ConcurrentNetFixture() { net.set_executor(nullptr); }
  std::shared_ptr<util::ThreadPool> pool;
};

TEST_F(ConcurrentNetFixture, StrandPreservesPerPartyDeliveryOrder) {
  std::mutex m;
  std::vector<int> got;
  net.register_endpoint("b", [&](const Address&, BytesView p) {
    std::lock_guard lk(m);
    got.push_back(static_cast<int>(p[0]) | static_cast<int>(p[1]) << 8);
  });
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    net.send("a", "b", Bytes{static_cast<std::uint8_t>(i & 0xff),
                             static_cast<std::uint8_t>(i >> 8)});
  }
  net.run();  // main thread pumps; workers drain b's strand
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_F(ConcurrentNetFixture, ReliableChannelExactlyOnceInOrderUnderDuplication) {
  ReliableEndpoint a(net, "a");
  ReliableEndpoint b(net, "b");
  net.set_link("a", "b", LinkConfig{.latency = 1, .duplicate = 1.0});
  std::mutex m;
  std::vector<std::string> got;
  b.set_handler([&](const Address&, BytesView p) {
    std::lock_guard lk(m);
    got.push_back(to_string(p));
  });
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) a.send("b", to_bytes("m" + std::to_string(i)));
  net.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));  // dedup held under threads
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
}

// Same-worker hand-off: a handler's send to an idle party runs on the
// sending worker once the handler's strand is empty, instead of waking
// another worker.
TEST_F(ConcurrentNetFixture, HandlerSendToAnIdlePartyRunsOnTheSendingWorker) {
  std::thread::id a_thread, b_thread;
  net.register_endpoint("a", [&](const Address&, BytesView) {
    a_thread = std::this_thread::get_id();
    net.send("a", "b", to_bytes("relay"));
  });
  net.register_endpoint("b", [&](const Address&, BytesView) {
    b_thread = std::this_thread::get_id();
  });
  const std::uint64_t before = pool->executed();
  net.send("x", "a", to_bytes("go"));
  net.drain();
  pool->wait_idle();
  EXPECT_EQ(b_thread, a_thread);
  EXPECT_EQ(pool->executed() - before, 1u);  // one pool task for both deliveries
}

// The slot must not wait behind the sender's own queued work: once the
// sender's strand gains a message, the held delivery goes to the pool.
TEST_F(ConcurrentNetFixture, HandOffGoesToThePoolWhenTheSenderHasMoreQueued) {
  std::promise<void> sent, queued, b_ran;
  std::future<void> queued_future = queued.get_future();
  std::future<void> b_ran_future = b_ran.get_future();
  bool second_saw_b = false;
  net.register_endpoint("a", [&](const Address&, BytesView p) {
    if (to_string(p) == "first") {
      net.send("a", "b", to_bytes("relay"));
      sent.set_value();
      queued_future.wait();  // "second" is now queued behind this handler
    } else {
      second_saw_b = b_ran_future.wait_for(std::chrono::seconds(5)) ==
                     std::future_status::ready;
    }
  });
  net.register_endpoint("b", [&](const Address&, BytesView) { b_ran.set_value(); });
  net.send("x", "a", to_bytes("first"));
  sent.get_future().wait();
  net.send("x", "a", to_bytes("second"));
  queued.set_value();
  net.drain();
  EXPECT_TRUE(second_saw_b);
}

// Only the first send may take the slot: a fan-out still runs its other
// deliveries in parallel with the sending handler.
TEST_F(ConcurrentNetFixture, FanOutFromAHandlerStillRunsInParallel) {
  std::atomic<int> others{0};
  std::atomic<int> b_runs{0};
  std::promise<void> both;
  std::future<void> both_future = both.get_future();
  bool saw_both = false;
  net.register_endpoint("a", [&](const Address&, BytesView) {
    for (const char* to : {"b", "c", "d"}) net.send("a", to, to_bytes("fan"));
    saw_both = both_future.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  });
  net.register_endpoint("b", [&](const Address&, BytesView) { ++b_runs; });
  const SimNetwork::Handler other = [&](const Address&, BytesView) {
    if (++others == 2) both.set_value();
  };
  net.register_endpoint("c", other);
  net.register_endpoint("d", other);
  net.send("x", "a", to_bytes("go"));
  net.drain();
  EXPECT_TRUE(saw_both);
  EXPECT_EQ(b_runs.load(), 1);
}

// Live mode takes one hop per message: a send goes straight onto the
// destination strand, so two idle parties talk while a third party's
// handler is still running. The link latency (default 5 ms) does not
// move the virtual clock.
struct HeldPartyFixture : ConcurrentNetFixture {
  HeldPartyFixture() {
    net.register_endpoint("held", [this](const Address&, BytesView) {
      entered.set_value();
      release_future.wait();
    });
    net.send("x", "held", to_bytes("hold"));
    pump = std::thread([this] { net.run_live(); });
    entered_future.wait();
  }
  ~HeldPartyFixture() {
    unhold();
    net.drain();
    net.stop_live();
    pump.join();
  }
  void unhold() {
    if (!released) release.set_value();
    released = true;
  }
  bool released = false;
  std::promise<void> entered, release;
  std::future<void> entered_future = entered.get_future();
  std::shared_future<void> release_future = release.get_future().share();
  std::thread pump;
};

TEST_F(HeldPartyFixture, MessageBetweenIdlePartiesIsDeliveredUnderLoad) {
  // Shared: the handler may still run after a failed wait has returned.
  auto got = std::make_shared<std::promise<std::string>>();
  auto delivered = got->get_future();
  net.register_endpoint("b", [got](const Address& from, BytesView p) {
    got->set_value(from + ":" + to_string(p));
  });
  net.send("a", "b", to_bytes("hi"));
  ASSERT_EQ(delivered.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(delivered.get(), "a:hi");
  EXPECT_EQ(clock->now(), 0u);
}

TEST_F(HeldPartyFixture, StrandTimerDoesNotFireWhileAHandlerRuns) {
  net.register_endpoint("b", [](const Address&, BytesView) {});
  const TimeMs start = clock->now();
  std::promise<TimeMs> fired;
  net.schedule_cancelable(1, [&] { fired.set_value(clock->now()); }, "b");
  auto at = fired.get_future();
  EXPECT_EQ(at.wait_for(std::chrono::milliseconds(200)), std::future_status::timeout);
  EXPECT_EQ(clock->now(), start);  // virtual time stands still under load
  unhold();
  ASSERT_EQ(at.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(at.get(), start + 1);
}

TEST_F(ConcurrentNetFixture, BlockingCallsFromManyThreads) {
  RpcEndpoint server(net, "server");
  server.set_request_handler([](const Address& from, BytesView req) {
    Bytes reply = to_bytes("echo:" + from + ":");
    append(reply, req);
    return reply;
  });
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
  for (int c = 0; c < 3; ++c) {
    endpoints.push_back(std::make_unique<RpcEndpoint>(net, "c" + std::to_string(c)));
  }

  std::thread pump([&] { net.run_live(); });
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const std::string want =
            "echo:c" + std::to_string(c) + ":r" + std::to_string(i);
        auto result =
            endpoints[static_cast<std::size_t>(c)]->call("server", to_bytes("r" + std::to_string(i)), 5000);
        if (result.ok() && to_string(result.value()) == want) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  net.drain();
  net.stop_live();
  pump.join();
  EXPECT_EQ(ok.load(), 30);
}

TEST_F(ConcurrentNetFixture, BlockingCallTimesOutViaVirtualClock) {
  RpcEndpoint client(net, "client");
  RpcEndpoint server(net, "server");
  net.set_partitioned("client", "server", true);
  std::thread pump([&] { net.run_live(); });
  auto result = client.call("server", to_bytes("ping"), 200);
  net.stop_live();
  pump.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "rpc.timeout");
  EXPECT_GE(clock->now(), 200u);
}

TEST_F(RpcFixture, ConcurrentCallsCorrelated) {
  // Two servers with different replies; interleaved calls must not mix.
  RpcEndpoint s2(net, "s2");
  server.set_request_handler([](const Address&, BytesView) { return to_bytes("from-1"); });
  s2.set_request_handler([&](const Address&, BytesView) {
    auto r = s2.call("server", to_bytes("x"), 500);  // cross-talk during the other call
    return to_bytes("from-2");
  });
  auto r2 = client.call("s2", to_bytes("b"), 1000);
  auto r1 = client.call("server", to_bytes("a"), 1000);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(to_string(r1.value()), "from-1");
  EXPECT_EQ(to_string(r2.value()), "from-2");
}

}  // namespace
}  // namespace nonrep::net
