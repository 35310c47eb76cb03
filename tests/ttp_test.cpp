#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/nr_interceptor.hpp"
#include "core/ttp.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::core {
namespace {

using container::Container;
using container::DeploymentDescriptor;
using container::Invocation;
using container::Outcome;

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

struct TtpFixture : ::testing::Test {
  TtpFixture() {
    client = &world.add_party("client");
    server = &world.add_party("server");
    ttp = &world.add_party("ttp");
    container.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
    server_handler = install_nr_server(*server->coordinator, container);
  }

  void install_relay(Router router) {
    relay = std::make_shared<InlineTtpRelay>(*ttp->coordinator, std::move(router));
    ttp->coordinator->register_handler(relay);
  }

  Invocation make_inv(const std::string& payload = "hello") {
    Invocation inv;
    inv.service = ServiceUri("svc://server/echo");
    inv.method = "echo";
    inv.arguments = to_bytes(payload);
    inv.caller = client->id;
    return inv;
  }

  test::TestWorld world;
  test::Party* client = nullptr;
  test::Party* server = nullptr;
  test::Party* ttp = nullptr;
  Container container;
  std::shared_ptr<DirectInvocationServer> server_handler;
  std::shared_ptr<InlineTtpRelay> relay;
};

Router direct_router() {
  return [](const net::Address&) { return std::nullopt; };
}

TEST_F(TtpFixture, SingleInlineTtpRelaysExchange) {
  install_relay(direct_router());
  InlineTtpInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv("through-ttp");
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "through-ttp");
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
  EXPECT_TRUE(handler.last_run_has_affidavit());
  EXPECT_EQ(relay->relayed(), 1u);
}

TEST_F(TtpFixture, TtpArchivesAllEvidence) {
  install_relay(direct_router());
  InlineTtpInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();  // flush step 3 relay
  // The TTP's archive alone can settle a dispute: it holds all four
  // exchange tokens plus its own affidavit.
  EXPECT_GE(ttp->log->size(), 5u);
  EXPECT_TRUE(ttp->log->verify_chain().ok());
  std::size_t kinds = 0;
  for (const char* kind : {"token.NRO-request", "token.NRR-request", "token.NRO-response",
                           "token.NRR-response", "token.affidavit"}) {
    bool found = false;
    for (const auto& rec : ttp->log->records()) {
      if (rec.kind == kind) found = true;
    }
    kinds += found ? 1 : 0;
  }
  EXPECT_EQ(kinds, 5u);
}

TEST_F(TtpFixture, ServerReceivesRelayedReceipt) {
  install_relay(direct_router());
  InlineTtpInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  // The relay forwarded the client's NRR_resp to the server.
  EXPECT_TRUE(server->log->find_run(RunId("")).empty());  // sanity: no empty-run records
  bool server_has_receipt = false;
  for (const auto& rec : server->log->records()) {
    if (rec.kind == "token.NRR-response") server_has_receipt = true;
  }
  EXPECT_TRUE(server_has_receipt);
}

TEST_F(TtpFixture, DistributedInlineTtpChain) {
  // client -> ttp (as TTP_A) -> ttp-b (as TTP_B) -> server (Figure 3(b)).
  auto& ttp_b = world.add_party("ttp-b");
  auto relay_b = std::make_shared<InlineTtpRelay>(*ttp_b.coordinator, direct_router());
  ttp_b.coordinator->register_handler(relay_b);
  // TTP_A routes everything via TTP_B.
  install_relay([](const net::Address&) { return std::make_optional<net::Address>("ttp-b"); });

  InlineTtpInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv("two-hops");
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "two-hops");
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
  world.network.run();
  EXPECT_EQ(relay->relayed(), 1u);
  EXPECT_EQ(relay_b->relayed(), 1u);
  // Both TTP archives hold the evidence.
  EXPECT_GE(ttp->log->size(), 4u);
  EXPECT_GE(ttp_b.log->size(), 4u);
}

TEST_F(TtpFixture, RelayRejectsBadClientEvidence) {
  install_relay(direct_router());
  // Hand-craft a relay message with a token over the wrong subject.
  EvidenceService& ev = *client->evidence;
  auto inv = make_inv();
  auto bogus = client->evidence->issue(EvidenceType::kNroRequest, RunId("run-x"),
                                       to_bytes("unrelated"));
  ASSERT_TRUE(bogus.ok());
  ProtocolMessage m1;
  m1.protocol = kInlineTtpProtocol;
  m1.run = RunId("run-x");
  m1.step = 1;
  m1.sender = client->id;
  m1.body = encode_relay_body("server", container::encode_invocation(inv));
  m1.tokens.push_back(std::move(bogus).take());
  auto reply = client->coordinator->deliver_request("ttp", m1, 1000);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, "evidence.subject_mismatch");
  (void)ev;
}

TEST_F(TtpFixture, RelayReportsUnreachableServer) {
  install_relay(direct_router());
  world.network.set_partitioned("ttp", "server", true);
  InlineTtpInvocationClient handler(*client->coordinator, "ttp",
                                    InvocationConfig{.request_timeout = 30000});
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  EXPECT_FALSE(result.ok());
  // The client keeps proof that it attempted the call.
  EXPECT_TRUE(handler.last_run_evidence().has_nro_request);
}

TEST_F(TtpFixture, RelayBodyEncodingRoundTrip) {
  const Bytes inner = to_bytes("inner-payload");
  auto decoded = decode_relay_body(encode_relay_body("server-x", inner));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().first, "server-x");
  EXPECT_EQ(decoded.value().second, inner);
  EXPECT_FALSE(decode_relay_body(to_bytes("junk")).ok());
}

TEST_F(TtpFixture, AtMostOnceThroughRelay) {
  install_relay(direct_router());
  InlineTtpInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  auto inv2 = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv2).ok());
  world.network.run();
  EXPECT_EQ(container.executions(), 2u);  // one per run, none duplicated
}

TEST_F(TtpFixture, ConcurrentClientsThroughOneRelayOverLiveRuntime) {
  // The relay forwards each step 1 and answers from the continuation, so
  // two clients' exchanges interleave inside the relay: a TSan workout for
  // the whole relay path, continuations included.
  install_relay(direct_router());
  auto& client2 = world.add_party("client2");

  auto pool = std::make_shared<util::ThreadPool>(3);
  world.network.set_executor(pool);
  std::thread pump([&] { world.network.run_live(); });

  constexpr int kPerClient = 3;
  std::atomic<int> ok{0};
  std::atomic<int> with_affidavit{0};
  auto drive = [&](test::Party& party) {
    InlineTtpInvocationClient handler(*party.coordinator, "ttp");
    for (int i = 0; i < kPerClient; ++i) {
      Invocation inv;
      inv.service = ServiceUri("svc://server/echo");
      inv.method = "echo";
      inv.arguments = to_bytes(party.id.str() + "-" + std::to_string(i));
      inv.caller = party.id;
      if (handler.invoke("server", inv).ok()) ok.fetch_add(1);
      if (handler.last_run_has_affidavit()) with_affidavit.fetch_add(1);
    }
  };
  std::thread t1([&] { drive(*client); });
  std::thread t2([&] { drive(client2); });
  t1.join();
  t2.join();

  world.network.drain();
  world.network.stop_live();
  pump.join();
  world.network.set_executor(nullptr);

  EXPECT_EQ(ok.load(), 2 * kPerClient);
  EXPECT_EQ(with_affidavit.load(), 2 * kPerClient);
  EXPECT_EQ(relay->relayed(), static_cast<std::uint64_t>(2 * kPerClient));
  EXPECT_EQ(container.executions(), static_cast<std::uint64_t>(2 * kPerClient));
  EXPECT_TRUE(ttp->log->verify_chain().ok());
  EXPECT_TRUE(server->log->verify_chain().ok());
}

TEST_F(TtpFixture, AsManyRelayedExchangesAsWorkersDoNotWedge) {
  // Regression for the inline-relay wedge. Every worker is held by a gate
  // task until every step 1 has been sent, so all of them reach the relay
  // at once. A relay that blocked its worker on the server's reply would
  // occupy every worker, leaving none to run the server, until the RPC
  // layer's 30 s real-time cap. Forwarding from a continuation finishes in
  // milliseconds.
  constexpr int kWorkers = 4;
  install_relay(direct_router());
  std::vector<test::Party*> clients{client};
  for (int i = 2; i <= kWorkers; ++i) {
    clients.push_back(&world.add_party("client" + std::to_string(i)));
  }
  auto pool = std::make_shared<util::ThreadPool>(kWorkers);
  world.network.set_executor(pool);
  std::promise<void> gate;
  const std::shared_future<void> open = gate.get_future().share();
  // The pool runs tasks in submission order: the gates take every worker
  // before any delivery can.
  for (int i = 0; i < kWorkers; ++i) pool->submit([open] { open.wait(); });

  std::atomic<int> ok{0};
  std::vector<std::thread> drivers;
  for (test::Party* party : clients) {
    drivers.emplace_back([&, party] {
      InlineTtpInvocationClient handler(*party->coordinator, "ttp");
      Invocation inv = make_inv(party->id.str());
      inv.caller = party->id;
      if (handler.invoke("server", inv).ok()) ok.fetch_add(1);
    });
  }
  // Each client's step 1 is its first send.
  const auto queued_by = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (world.network.stats().sent < static_cast<std::uint64_t>(kWorkers) &&
         std::chrono::steady_clock::now() < queued_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t sent = world.network.stats().sent;

  const auto start = std::chrono::steady_clock::now();
  gate.set_value();  // before the check, so a failure cannot leave workers held
  ASSERT_EQ(sent, static_cast<std::uint64_t>(kWorkers));
  std::thread pump([&] { world.network.run_live(); });
  for (auto& t : drivers) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  world.network.drain();
  world.network.stop_live();
  pump.join();
  world.network.set_executor(nullptr);

  EXPECT_EQ(ok.load(), kWorkers);
  EXPECT_EQ(relay->relayed(), static_cast<std::uint64_t>(kWorkers));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

}  // namespace
}  // namespace nonrep::core
