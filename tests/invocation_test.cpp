#include <gtest/gtest.h>

#include "common.hpp"
#include "container/proxy.hpp"
#include "core/fair_exchange.hpp"
#include "core/invocation_protocol.hpp"
#include "core/nr_interceptor.hpp"
#include "core/ttp.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace nonrep::core {
namespace {

using container::Container;
using container::DeploymentDescriptor;
using container::Invocation;
using container::Outcome;

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  c->bind("boom", [](const Invocation&) -> Result<Bytes> {
    return Error::make("app.crash", "component raised");
  });
  return c;
}

struct InvocationFixture : ::testing::Test {
  InvocationFixture() {
    client = &world.add_party("client");
    server = &world.add_party("server");
    container.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{
        .non_repudiation = true, .protocol = "direct"});
    server_handler = install_nr_server(*server->coordinator, container);
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
  Container container;
  std::shared_ptr<DirectInvocationServer> server_handler;
};

TEST_F(InvocationFixture, SuccessfulExchangeReturnsResult) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv("payload-x");
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "payload-x");
}

TEST_F(InvocationFixture, ClientHoldsFullEvidence) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  const RunEvidence& ev = handler.last_run_evidence();
  EXPECT_TRUE(ev.has_nro_request);
  EXPECT_TRUE(ev.has_nrr_request);
  EXPECT_TRUE(ev.has_nro_response);
  EXPECT_TRUE(ev.complete_for_client());
}

TEST_F(InvocationFixture, ServerHoldsFullEvidenceAfterReceipt) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  world.network.run();  // flush the one-way NRR_resp
  const RunId run = handler.last_run();
  EXPECT_TRUE(server_handler->run_complete(run));
  EXPECT_TRUE(server_handler->evidence_for(run).complete_for_server());
}

TEST_F(InvocationFixture, AllFourTokensLogged) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  const RunId run = handler.last_run();
  // Client log: own NRO_req + accepted NRR_req, NRO_resp + own NRR_resp.
  EXPECT_TRUE(client->log->find(run, "token.NRO-request").has_value());
  EXPECT_TRUE(client->log->find(run, "token.NRR-request").has_value());
  EXPECT_TRUE(client->log->find(run, "token.NRO-response").has_value());
  EXPECT_TRUE(client->log->find(run, "token.NRR-response").has_value());
  // Server log: accepted NRO_req + own NRR_req, NRO_resp + accepted NRR_resp.
  EXPECT_TRUE(server->log->find(run, "token.NRO-request").has_value());
  EXPECT_TRUE(server->log->find(run, "token.NRR-request").has_value());
  EXPECT_TRUE(server->log->find(run, "token.NRO-response").has_value());
  EXPECT_TRUE(server->log->find(run, "token.NRR-response").has_value());
  EXPECT_TRUE(client->log->verify_chain().ok());
  EXPECT_TRUE(server->log->verify_chain().ok());
}

TEST_F(InvocationFixture, ApplicationFailureStillEvidenced) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  inv.method = "boom";
  auto result = handler.invoke("server", inv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.outcome, Outcome::kFailure);
  // Even a failed execution yields a complete evidence exchange (§3.2:
  // "interceptor-generated evidence that the request failed").
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
}

TEST_F(InvocationFixture, UnknownServiceEvidencedAsNotExecuted) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  inv.service = ServiceUri("svc://server/ghost");
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, Outcome::kNotExecuted);
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
}

TEST_F(InvocationFixture, TimeoutWhenServerPartitioned) {
  world.network.set_partitioned("client", "server", true);
  DirectInvocationClient handler(*client->coordinator, InvocationConfig{.request_timeout = 300});
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, Outcome::kTimeout);
  // Client still has proof of its own attempt.
  EXPECT_TRUE(handler.last_run_evidence().has_nro_request);
  EXPECT_FALSE(handler.last_run_evidence().complete_for_client());
}

TEST_F(InvocationFixture, AtMostOnceUnderDuplicatingNetwork) {
  world.network.set_link("client", "server",
                         net::LinkConfig{.latency = 1, .duplicate = 1.0});
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  world.network.run();
  EXPECT_EQ(container.executions(), 1u);
}

TEST_F(InvocationFixture, ExchangeSurvivesLossyLinks) {
  world.network.set_link("client", "server", net::LinkConfig{.latency = 1, .drop = 0.4});
  world.network.set_link("server", "client", net::LinkConfig{.latency = 1, .drop = 0.4});
  DirectInvocationClient handler(*client->coordinator,
                                 InvocationConfig{.request_timeout = 20000});
  for (int i = 0; i < 5; ++i) {
    auto inv = make_inv("retry-" + std::to_string(i));
    auto result = handler.invoke("server", inv);
    ASSERT_TRUE(result.ok()) << i;
    EXPECT_TRUE(handler.last_run_evidence().complete_for_client()) << i;
  }
  world.network.run();
  EXPECT_EQ(container.executions(), 5u);
}

// Per-run and per-message state retires with the run: after a fleet of
// clients has finished its exchanges over lossy, duplicating links and the
// network has drained, the server waits on no run and no endpoint keeps a
// dedup entry per message. The evidence log alone records every run.
TEST_F(InvocationFixture, DrainedFleetHoldsNoPerRunOrPerMessageState) {
  world.network.set_default_link(net::LinkConfig{.latency = 1, .drop = 0.15, .duplicate = 0.15});
  std::vector<test::Party*> clients{client, &world.add_party("client-2"),
                                    &world.add_party("client-3")};
  std::vector<std::unique_ptr<DirectInvocationClient>> handlers;
  for (test::Party* party : clients) {
    handlers.push_back(std::make_unique<DirectInvocationClient>(
        *party->coordinator, InvocationConfig{.request_timeout = 20000}));
  }
  constexpr int kRounds = 10;
  std::vector<RunId> runs;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      auto inv = make_inv("fleet-" + std::to_string(round));
      inv.caller = clients[i]->id;
      ASSERT_TRUE(handlers[i]->invoke("server", inv).ok()) << round << "/" << i;
      runs.push_back(handlers[i]->last_run());
    }
  }
  world.network.run();
  ASSERT_GT(server->coordinator->evidence().log().size(), 0u);

  EXPECT_EQ(server_handler->pending_runs(), 0u);
  EXPECT_EQ(server->coordinator->per_message_entries(), 0u);
  for (test::Party* party : clients) EXPECT_EQ(party->coordinator->per_message_entries(), 0u);
  for (const RunId& run : runs) EXPECT_TRUE(server_handler->run_complete(run)) << run.str();
  EXPECT_EQ(container.executions(), runs.size());
}

TEST_F(InvocationFixture, EachRunHasDistinctId) {
  DirectInvocationClient handler(*client->coordinator);
  auto inv1 = make_inv();
  handler.invoke("server", inv1);
  const RunId r1 = handler.last_run();
  auto inv2 = make_inv();
  handler.invoke("server", inv2);
  EXPECT_NE(r1, handler.last_run());
}

TEST_F(InvocationFixture, ForgedCallerRejectedByServer) {
  // A client whose NRO_req issuer differs from the invocation caller.
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  inv.caller = server->id;  // impersonation attempt
  auto result = handler.invoke("server", inv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(container.executions(), 0u);
}

TEST_F(InvocationFixture, ServerRejectingNroRequestIsAFailureNotATimeout) {
  // The server answers step 1 with an error reply: the client knows the
  // request was refused, so the run fails with the server's code.
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  inv.caller = server->id;  // NRO_req issuer differs from the caller
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, Outcome::kFailure);
  EXPECT_EQ(nonrep::to_string(result.payload), "nr.invocation.issuer_mismatch");
  EXPECT_TRUE(handler.last_run_evidence().has_nro_request);
  EXPECT_FALSE(handler.last_run_evidence().has_nrr_request);
  EXPECT_EQ(container.executions(), 0u);
}

TEST_F(InvocationFixture, RevokedClientRejected) {
  world.revocation().revoke(client->certificate.serial);
  world.broadcast_crl();
  DirectInvocationClient handler(*client->coordinator);
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(container.executions(), 0u);
}

TEST_F(InvocationFixture, RequestSubjectBindsEverything) {
  auto inv1 = make_inv("a");
  auto inv2 = make_inv("b");
  EXPECT_NE(request_subject(inv1), request_subject(inv2));
  inv2.arguments = inv1.arguments;
  EXPECT_EQ(request_subject(inv1), request_subject(inv2));
  inv2.method = "other";
  EXPECT_NE(request_subject(inv1), request_subject(inv2));
}

TEST_F(InvocationFixture, ResponseSubjectBindsRun) {
  auto res = container::InvocationResult::success(to_bytes("x"));
  EXPECT_NE(response_subject(RunId("r1"), res), response_subject(RunId("r2"), res));
}

// ---- through the interceptor chain / proxy (Figure 7 wiring) ----

TEST_F(InvocationFixture, NrClientInterceptorRoutesThroughProtocol) {
  auto resolver = [](const ServiceUri&) { return net::Address("server"); };
  auto nr = std::make_shared<NrClientInterceptor>(*client->coordinator, resolver);
  container::ClientProxy proxy(
      client->id, ServiceUri("svc://server/echo"),
      {nr, std::make_shared<container::ContextInterceptor>("app", "test")},
      [](Invocation&) {
        ADD_FAILURE() << "plain transport must not be reached";
        return container::InvocationResult::failure(Outcome::kFailure, "unreachable");
      });
  auto result = proxy.call("echo", to_bytes("via-proxy"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "via-proxy");
  EXPECT_GE(client->log->size(), 1u);
}

TEST_F(InvocationFixture, UnknownProtocolFallsThroughToTransport) {
  auto resolver = [](const ServiceUri&) { return net::Address("server"); };
  auto nr = std::make_shared<NrClientInterceptor>(*client->coordinator, resolver, "cpp-sim",
                                                  "no-such-protocol");
  bool transport_reached = false;
  container::ClientProxy proxy(client->id, ServiceUri("svc://server/echo"), {nr},
                               [&](Invocation&) {
                                 transport_reached = true;
                                 return container::InvocationResult::success({});
                               });
  proxy.call("echo", to_bytes("x"));
  EXPECT_TRUE(transport_reached);
}

TEST_F(InvocationFixture, FactoryKnowsBuiltins) {
  auto& factory = InvocationHandlerFactory::instance();
  EXPECT_TRUE(factory.known("cpp-sim", "direct"));
  EXPECT_FALSE(factory.known("cpp-sim", "bogus"));
  EXPECT_EQ(factory.create("jboss", "direct", *client->coordinator, {}), nullptr);
}

// Message-count check: the direct protocol is 3 messages (2 RPC legs + 1
// one-way) + 3 acks at the reliable layer.
TEST_F(InvocationFixture, MessageCountMatchesProtocolShape) {
  DirectInvocationClient handler(*client->coordinator);
  world.network.reset_stats();
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  // 3 protocol messages + 3 acks = 6 sends on a clean link.
  EXPECT_EQ(world.network.stats().sent, 6u);
}

class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, RoundTripsAllSizes) {
  test::TestWorld world(5);
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  Container container;
  container.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
  auto server_handler = install_nr_server(*server.coordinator, container);

  DirectInvocationClient handler(*client.coordinator);
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = Bytes(GetParam(), 0x42);
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.payload.size(), GetParam());
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSweep,
                         ::testing::Values(0, 1, 100, 1024, 16 * 1024, 256 * 1024));

// ---- one exchange, three clients ----
//
// The direct, optimistic and inline-TTP clients run the same client half
// of §3.2; only the route differs (classic inline dispatch throughout).

enum class ClientKind { kDirect, kOptimistic, kInlineTtp };

// Serves step 1 through the honest server handler, then forges the NRR_req
// of its reply.
class ForgingServer final : public ProtocolHandler {
 public:
  explicit ForgingServer(std::shared_ptr<DirectInvocationServer> inner)
      : inner_(std::move(inner)) {}
  std::string protocol() const override { return inner_->protocol(); }
  Result<ProtocolMessage> process_request(const net::Address& from,
                                          const ProtocolMessage& msg) override {
    auto reply = inner_->process_request(from, msg);
    if (reply) {
      for (auto& token : reply.value().tokens) {
        if (token.type == EvidenceType::kNrrRequest) token.signature[0] ^= 0x01;
      }
    }
    return reply;
  }
  void process(const net::Address& from, const ProtocolMessage& msg) override {
    inner_->process(from, msg);
  }

 private:
  std::shared_ptr<DirectInvocationServer> inner_;
};

struct ClientSweep : InvocationFixture, ::testing::WithParamInterface<ClientKind> {
  ClientSweep() {
    ttp = &world.add_party("ttp");
    ttp->coordinator->register_handler(std::make_shared<OptimisticTtp>(*ttp->coordinator));
    ttp->coordinator->register_handler(std::make_shared<InlineTtpRelay>(
        *ttp->coordinator, [](const net::Address&) { return std::nullopt; }));
  }

  /// One invocation through the client under test; the result and its run.
  std::pair<container::InvocationResult, RunId> invoke() {
    Invocation inv = make_inv();
    container::InvocationResult result;
    switch (GetParam()) {
      case ClientKind::kDirect:
        result = DirectInvocationClient(*client->coordinator).invoke("server", inv);
        break;
      case ClientKind::kOptimistic:
        result = OptimisticInvocationClient(*client->coordinator, "ttp").invoke("server", inv);
        break;
      case ClientKind::kInlineTtp:
        result = InlineTtpInvocationClient(*client->coordinator, "ttp").invoke("server", inv);
        break;
    }
    world.network.run();
    return {result, RunId(inv.context.at(container::kRunIdContextKey))};
  }

  test::Party* ttp = nullptr;
};

TEST_P(ClientSweep, NormalRunLogsEveryTokenInsideTheExchangeSpan) {
  auto [result, run] = invoke();
  ASSERT_TRUE(result.ok()) << nonrep::to_string(result.payload);
  std::vector<EvidenceType> held = {EvidenceType::kNroRequest, EvidenceType::kNrrRequest,
                                    EvidenceType::kNroResponse, EvidenceType::kNrrResponse};
  if (GetParam() == ClientKind::kInlineTtp) held.push_back(EvidenceType::kAffidavit);

  std::uint64_t span = 0;
  for (EvidenceType type : held) {
    auto rec = client->log->find(run, log_kind(type));
    ASSERT_TRUE(rec.has_value()) << log_kind(type);
    EXPECT_NE(rec->span, 0u) << log_kind(type);
    if (span == 0) span = rec->span;
    EXPECT_EQ(rec->span, span) << log_kind(type);
  }
  // That span is the exchange's root span.
  bool found = false;
  for (const obs::SpanRecord& s : obs::Tracer::global().snapshot()) {
    if (s.id != span) continue;
    found = true;
    EXPECT_EQ(s.name, "fx.invoke");
    EXPECT_EQ(s.run, run.str());
    EXPECT_EQ(s.parent, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_P(ClientSweep, ForgedNrrRequestFailsTheRunBeforeStep3) {
  server->coordinator->register_handler(std::make_shared<ForgingServer>(server_handler));
  auto [result, run] = invoke();
  EXPECT_FALSE(result.ok());
  // A definite rejection, not a missing reply: every client fails the run.
  EXPECT_EQ(result.outcome, Outcome::kFailure);
  EXPECT_EQ(nonrep::to_string(result.payload), "bad NRR_req evidence");
  // No step 3: no receipt anywhere, and the server still waits for one.
  EXPECT_FALSE(client->log->find(run, log_kind(EvidenceType::kNrrResponse)).has_value());
  EXPECT_FALSE(server->log->find(run, log_kind(EvidenceType::kNrrResponse)).has_value());
  EXPECT_FALSE(ttp->log->find(run, log_kind(EvidenceType::kNrrResponse)).has_value());
  EXPECT_EQ(server_handler->pending_runs(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Clients, ClientSweep,
                         ::testing::Values(ClientKind::kDirect, ClientKind::kOptimistic,
                                           ClientKind::kInlineTtp),
                         [](const ::testing::TestParamInfo<ClientKind>& info) {
                           switch (info.param) {
                             case ClientKind::kDirect: return "Direct";
                             case ClientKind::kOptimistic: return "Optimistic";
                             case ClientKind::kInlineTtp: return "InlineTtp";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace nonrep::core
