// Adversarial robustness: malformed and corrupted wire input must never
// crash a coordinator, never execute a component, and never yield
// verifiable evidence (trusted-interceptor assumption 4 is about honest
// interceptors — the implementation must still survive dishonest bytes).
#include <gtest/gtest.h>

#include "common.hpp"
#include "core/nr_interceptor.hpp"
#include "core/sharing.hpp"
#include "crypto/drbg.hpp"

namespace nonrep::core {
namespace {

using container::Invocation;

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

struct RobustnessFixture : ::testing::Test {
  RobustnessFixture() {
    client = &world.add_party("client");
    server = &world.add_party("server");
    container.deploy(ServiceUri("svc://server/echo"), make_echo(), {});
    nr = install_nr_server(*server->coordinator, container);
  }
  test::TestWorld world;
  test::Party* client = nullptr;
  test::Party* server = nullptr;
  container::Container container;
  std::shared_ptr<DirectInvocationServer> nr;
};

// Raw garbage hurled at the coordinator endpoint (below the RPC framing).
TEST_F(RobustnessFixture, RawGarbageToEndpointIsHarmless) {
  crypto::Drbg rng(to_bytes("garbage"));
  for (int i = 0; i < 200; ++i) {
    world.network.send("attacker", "server", rng.generate(1 + rng.uniform(300)));
  }
  EXPECT_NO_FATAL_FAILURE(world.network.run());
  EXPECT_EQ(container.executions(), 0u);
  EXPECT_EQ(server->log->size(), 0u);
}

// Well-framed RPC carrying a garbage protocol message.
TEST_F(RobustnessFixture, GarbageProtocolMessageRejected) {
  net::RpcEndpoint attacker(world.network, "attacker");
  crypto::Drbg rng(to_bytes("garbage2"));
  for (int i = 0; i < 100; ++i) {
    auto reply = attacker.call("server", rng.generate(1 + rng.uniform(200)), 1000);
    // Either no reply or an error reply; never an executed invocation.
    (void)reply;
  }
  world.network.run();
  EXPECT_EQ(container.executions(), 0u);
  EXPECT_EQ(server->log->size(), 0u);
}

// A structurally valid step-1 message whose evidence is random bytes.
TEST_F(RobustnessFixture, RandomSignatureNeverAccepted) {
  crypto::Drbg rng(to_bytes("forged"));
  for (int i = 0; i < 25; ++i) {
    Invocation inv;
    inv.service = ServiceUri("svc://server/echo");
    inv.method = "echo";
    inv.arguments = to_bytes("forged");
    inv.caller = client->id;
    EvidenceToken token;
    token.type = EvidenceType::kNroRequest;
    token.run = RunId("forged-" + std::to_string(i));
    token.issuer = client->id;
    token.issued_at = world.clock->now();
    token.subject = crypto::Sha256::hash(request_subject(inv));
    token.signature = rng.generate(64);  // random "signature"

    ProtocolMessage m1;
    m1.protocol = kDirectInvocationProtocol;
    m1.run = token.run;
    m1.step = 1;
    m1.sender = client->id;
    m1.body = container::encode_invocation(inv);
    m1.tokens.push_back(token);
    auto reply = client->coordinator->deliver_request("server", m1, 1000);
    EXPECT_FALSE(reply.ok()) << i;
  }
  EXPECT_EQ(container.executions(), 0u);
}

// Mutation fuzzing: take a *valid* step-1 message and flip random bytes.
// Every mutant must be rejected or (rarely, if the mutation does not land
// on guarded bytes) behave like a fresh valid message — but never crash
// and never verify evidence that mismatches its subject.
class WireMutation : public ::testing::TestWithParam<int> {};

TEST_P(WireMutation, MutatedStepOneNeverBreaksServer) {
  test::TestWorld world(static_cast<std::uint64_t>(GetParam()) + 500);
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  container::Container cont;
  cont.deploy(ServiceUri("svc://server/echo"), make_echo(), {});
  auto nr = install_nr_server(*server.coordinator, cont);

  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("fuzz-base");
  inv.caller = client.id;
  const RunId run = client.evidence->new_run();
  inv.context[container::kRunIdContextKey] = run.str();
  auto nro = client.evidence->issue(EvidenceType::kNroRequest, run, request_subject(inv));
  ASSERT_TRUE(nro.ok());
  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = client.id;
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(std::move(nro).take());
  const Bytes valid = m1.encode();

  crypto::Drbg rng(to_bytes("mutate-" + std::to_string(GetParam())));
  net::RpcEndpoint raw(world.network, "raw-client");
  for (int i = 0; i < 40; ++i) {
    Bytes mutant = valid;
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutant[rng.uniform(mutant.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    auto reply = raw.call("server", mutant, 2000);
    (void)reply;  // any outcome is fine as long as nothing crashes
  }
  world.network.run();
  // The server's evidence log must still be internally consistent.
  EXPECT_TRUE(server.log->verify_chain().ok());
  // And every logged token must actually verify against its stored subject.
  for (const auto& rec : server.log->records()) {
    auto token = EvidenceToken::decode(rec.payload);
    if (!token.ok()) continue;
    auto subject = server.states->get(token.value().subject);
    ASSERT_TRUE(subject.ok());
    EXPECT_TRUE(server.evidence->verify(token.value(), subject.value()).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireMutation, ::testing::Range(0, 8));

// Replayed step-1 messages: at-most-once must hold even against replays.
TEST_F(RobustnessFixture, ReplayedRequestNotReExecuted) {
  DirectInvocationClient handler(*client->coordinator);
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("replay-me");
  inv.caller = client->id;
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  ASSERT_EQ(container.executions(), 1u);

  // Replay the exact step-1 bytes from a different endpoint.
  const Bytes req_subject_bytes = request_subject(inv);
  auto rec = client->log->find(handler.last_run(), "token.NRO-request");
  ASSERT_TRUE(rec.has_value());
  auto token = EvidenceToken::decode(rec->payload);
  ProtocolMessage replay;
  replay.protocol = kDirectInvocationProtocol;
  replay.run = handler.last_run();
  replay.step = 1;
  replay.sender = client->id;
  replay.body = container::encode_invocation(inv);
  replay.tokens.push_back(token.value());
  net::RpcEndpoint attacker(world.network, "attacker");
  for (int i = 0; i < 5; ++i) {
    auto reply = attacker.call("server", replay.encode(), 2000);
    EXPECT_TRUE(reply.ok());  // server answers (idempotently)
  }
  world.network.run();
  EXPECT_EQ(container.executions(), 1u);  // still exactly once
  EXPECT_EQ(nr->pending_runs(), 0u);      // a finished run does not re-open
}

}  // namespace
}  // namespace nonrep::core
