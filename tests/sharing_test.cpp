#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common.hpp"
#include "core/sharing.hpp"
#include "obs/metrics.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::core {
namespace {

const ObjectId kSpec{"obj:car-spec"};

/// Validator accepting only states that start with "ok".
class PrefixValidator final : public StateValidator {
 public:
  bool validate(const ObjectId&, const PartyId&, BytesView, BytesView proposed) override {
    return proposed.size() >= 2 && proposed[0] == 'o' && proposed[1] == 'k';
  }
};

/// Validator that records what it saw (for introspection tests).
class RecordingValidator final : public StateValidator {
 public:
  bool validate(const ObjectId&, const PartyId& proposer, BytesView, BytesView) override {
    proposers.push_back(proposer);
    return true;
  }
  std::vector<PartyId> proposers;
};

struct SharingFixture : ::testing::Test {
  struct Node {
    test::Party* party;
    std::unique_ptr<membership::MembershipService> membership;
    std::shared_ptr<B2BObjectController> controller;
  };

  void build(std::size_t n, const Bytes& initial = to_bytes("ok:v1")) {
    std::vector<membership::Member> members;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name(1, static_cast<char>('a' + i));
      auto& p = world.add_party(name);
      members.push_back({p.id, p.address});
      nodes.push_back(Node{&p, std::make_unique<membership::MembershipService>(), nullptr});
    }
    for (auto& node : nodes) {
      node.membership->create_group(kSpec, members);
      node.controller =
          std::make_shared<B2BObjectController>(*node.party->coordinator, *node.membership);
      node.party->coordinator->register_handler(node.controller);
      EXPECT_TRUE(node.controller->host(kSpec, initial).ok());
    }
  }

  void expect_converged(const Bytes& state, std::uint64_t version) {
    for (auto& node : nodes) {
      auto got = node.controller->get(kSpec);
      ASSERT_TRUE(got.ok()) << node.party->id.str();
      EXPECT_EQ(got.value().state, state) << node.party->id.str();
      EXPECT_EQ(got.value().version, version) << node.party->id.str();
    }
  }

  test::TestWorld world;
  std::vector<Node> nodes;
};

TEST_F(SharingFixture, UnanimousUpdateApplies) {
  build(3);
  auto v = nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
  EXPECT_EQ(v.value(), 2u);
  world.network.run();  // flush decision fan-out
  expect_converged(to_bytes("ok:v2"), 2);
}

TEST_F(SharingFixture, TwoPartySharing) {
  build(2);
  ASSERT_TRUE(nodes[1].controller->propose_update(kSpec, to_bytes("ok:from-b")).ok());
  world.network.run();
  expect_converged(to_bytes("ok:from-b"), 2);
}

TEST_F(SharingFixture, ValidatorVetoBlocksUpdateEverywhere) {
  build(3);
  nodes[1].controller->add_validator(kSpec, std::make_shared<PrefixValidator>());
  auto v = nodes[0].controller->propose_update(kSpec, to_bytes("bad:v2"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "sharing.rejected");
  world.network.run();
  expect_converged(to_bytes("ok:v1"), 1);  // nothing applied anywhere
}

TEST_F(SharingFixture, ProposerLocalValidatorBlocksBeforeProtocol) {
  build(3);
  nodes[0].controller->add_validator(kSpec, std::make_shared<PrefixValidator>());
  world.network.reset_stats();
  auto v = nodes[0].controller->propose_update(kSpec, to_bytes("bad:v2"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code, "sharing.local_validation");
  EXPECT_EQ(world.network.stats().sent, 0u);  // never left the building
}

TEST_F(SharingFixture, SequentialUpdatesAdvanceVersions) {
  build(3);
  for (int i = 2; i <= 5; ++i) {
    auto v = nodes[static_cast<std::size_t>(i) % 3].controller->propose_update(
        kSpec, to_bytes("ok:v" + std::to_string(i)));
    ASSERT_TRUE(v.ok()) << i << " " << v.error().code;
    EXPECT_EQ(v.value(), static_cast<std::uint64_t>(i));
    world.network.run();
  }
  expect_converged(to_bytes("ok:v5"), 5);
}

TEST_F(SharingFixture, EvidenceTrailCoversWholeRound) {
  build(3);
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2")).ok());
  world.network.run();
  // Proposer: own proposal + decision + own vote + 2 peer votes.
  bool has_proposal = false, has_decision = false;
  int votes = 0;
  for (const auto& rec : nodes[0].party->log->records()) {
    if (rec.kind == "token.proposal") has_proposal = true;
    if (rec.kind == "token.decision") has_decision = true;
    if (rec.kind == "token.vote") ++votes;
  }
  EXPECT_TRUE(has_proposal);
  EXPECT_TRUE(has_decision);
  EXPECT_EQ(votes, 3);
  // Each voter logged: accepted proposal + own vote + decision + the two
  // peer votes. Its own vote comes back in the decision and is counted
  // there, but it was logged once, at issue.
  for (std::size_t i = 1; i < 3; ++i) {
    bool voter_logged_decision = false;
    int voter_votes = 0;
    for (const auto& rec : nodes[i].party->log->records()) {
      if (rec.kind == "token.decision") voter_logged_decision = true;
      if (rec.kind == "token.vote") ++voter_votes;
    }
    EXPECT_TRUE(voter_logged_decision) << i;
    EXPECT_EQ(voter_votes, 3) << i;
    EXPECT_TRUE(nodes[i].party->log->verify_chain().ok());
  }
}

TEST_F(SharingFixture, DecisionVerifiesEachTokenOnce) {
  // One 3-party round checks 10 tokens: the proposal at each voter (2),
  // the peer votes at the proposer (2), and the decision plus the two peer
  // votes at each voter (6). A voter's own vote, back in the decision, was
  // signed by it and is not checked again. Each check is one signature
  // verify.
  // A warm-up round first fills every party's chain cache, so the measured
  // round does no certificate work.
  build(3);
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2")).ok());
  world.network.run();
  auto& reg = obs::Registry::global();
  auto verifies = [&] {
    return reg.counter("crypto.verifier_cache_hits").value() +
           reg.counter("crypto.verifier_cache_misses").value();
  };
  const std::uint64_t before = verifies();
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v3")).ok());
  world.network.run();
  EXPECT_EQ(verifies() - before, 10u);
  expect_converged(to_bytes("ok:v3"), 3);
}

/// A state round on kSpec at base version 1, encoded as on the wire.
Bytes state_round(const std::string& payload) {
  BinaryWriter w;
  w.u8(1);  // RoundKind::kState
  w.str(kSpec.str());
  w.u64(1);
  w.bytes(to_bytes(payload));
  return std::move(w).take();
}

/// Vote or decision subject (`tag`) accepting/committing `round` in `run`.
Bytes agreement_subject(const char* tag, const RunId& run, const Bytes& round) {
  BinaryWriter w;
  w.str(tag);
  w.str(run.str());
  w.u8(1);
  w.bytes(crypto::digest_bytes(crypto::Sha256::hash(round)));
  return std::move(w).take();
}

/// A commit decision for `round` signed by `proposer`, carrying `votes`.
ProtocolMessage commit_decision(test::Party& proposer, const RunId& run, const Bytes& round,
                                const std::vector<EvidenceToken>& votes) {
  ProtocolMessage decide;
  decide.protocol = kSharingProtocol;
  decide.run = run;
  decide.step = kStepDecide;
  decide.sender = proposer.id;
  BinaryWriter body;
  body.bytes(round);
  body.u8(1);  // commit
  decide.body = std::move(body).take();
  decide.tokens.push_back(
      proposer.evidence
          ->issue(EvidenceType::kDecision, run, agreement_subject("nr.sharing.decision", run, round))
          .value());
  for (const auto& v : votes) decide.tokens.push_back(v);
  return decide;
}

EvidenceToken vote_by(test::Party& party, const RunId& run, const Bytes& round) {
  return party.evidence
      ->issue(EvidenceType::kVote, run, agreement_subject("nr.sharing.vote", run, round))
      .value();
}

TEST_F(SharingFixture, ForgedOwnVoteInDecisionIsCheckedAndRejected) {
  // A voter counts its own vote from a decision without a second check only
  // when it is the token the voter issued. Here a proposer sends node 1 a
  // commit for a round node 1 never voted on, carrying a vote in node 1's
  // name with node 0's signature: it is checked, fails, and the round does
  // not apply at node 1.
  build(3);
  auto& proposer = *nodes[0].party;
  const RunId run = proposer.evidence->new_run();
  const Bytes round = state_round("ok:forged");
  const EvidenceToken own = vote_by(proposer, run, round);
  EvidenceToken forged = own;
  forged.issuer = nodes[1].party->id;
  ASSERT_TRUE(proposer.coordinator
                  ->deliver(nodes[1].party->address,
                            commit_decision(proposer, run, round,
                                            {own, forged, vote_by(*nodes[2].party, run, round)}))
                  .ok());
  world.network.run();
  auto got = nodes[1].controller->get(kSpec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().state, to_bytes("ok:v1"));
  EXPECT_EQ(got.value().version, 1u);
}

TEST_F(SharingFixture, OwnVoteShortcutIsBoundToTheRoundVotedOn) {
  // Node 1 votes accept on round R1 and so holds the run's lock. The
  // proposer then sends it a commit for a different round R2 under the same
  // run, with a colluding node 2's vote and a vote in node 1's name whose
  // subject is R2's and whose signature is garbage. Node 1 never validated
  // or signed R2: the vote is checked like any other, fails, and R2 does
  // not apply.
  build(3);
  auto& proposer = *nodes[0].party;
  const RunId run = proposer.evidence->new_run();
  const Bytes r1 = state_round("ok:r1");
  ProtocolMessage propose;
  propose.protocol = kSharingProtocol;
  propose.run = run;
  propose.step = kStepPropose;
  propose.sender = proposer.id;
  propose.body = r1;
  {
    BinaryWriter subject;
    subject.str("nr.sharing.proposal");
    subject.str(run.str());
    subject.bytes(r1);
    propose.tokens.push_back(
        proposer.evidence->issue(EvidenceType::kProposal, run, std::move(subject).take())
            .value());
  }
  auto reply = proposer.coordinator->deliver_request(nodes[1].party->address, propose,
                                                     SharingConfig{}.vote_timeout);
  ASSERT_TRUE(reply.ok()) << reply.error().code;
  ASSERT_EQ(reply.value().body, Bytes{1});  // node 1 voted accept on R1

  const Bytes r2 = state_round("ok:r2");
  EvidenceToken forged = vote_by(proposer, run, r2);
  forged.issuer = nodes[1].party->id;
  forged.signature.assign(forged.signature.size(), 0xA5);
  ASSERT_TRUE(proposer.coordinator
                  ->deliver(nodes[1].party->address,
                            commit_decision(proposer, run, r2,
                                            {vote_by(proposer, run, r2), forged,
                                             vote_by(*nodes[2].party, run, r2)}))
                  .ok());
  world.network.run();
  auto got = nodes[1].controller->get(kSpec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().state, to_bytes("ok:v1"));
  EXPECT_EQ(got.value().version, 1u);
}

TEST_F(SharingFixture, AgreedStateReconstructibleFromStore) {
  build(2);
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2")).ok());
  world.network.run();
  // §3.4: the state digest in evidence maps back to stored state bytes.
  const crypto::Digest d = crypto::Sha256::hash(to_bytes("ok:v2"));
  for (auto& node : nodes) {
    auto stored = node.party->states->get(d);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(stored.value(), to_bytes("ok:v2"));
  }
}

TEST_F(SharingFixture, StaleBaseVersionRejected) {
  build(3);
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2")).ok());
  world.network.run();
  // Manually craft a proposal against the outdated version 1.
  auto& proposer = *nodes[0].party;
  EvidenceService& ev = *proposer.evidence;
  const RunId run = ev.new_run();
  BinaryWriter w;
  w.u8(1);  // RoundKind::kState
  w.str(kSpec.str());
  w.u64(1);  // stale base version
  w.bytes(to_bytes("ok:stale"));
  ProtocolMessage propose;
  propose.protocol = kSharingProtocol;
  propose.run = run;
  propose.step = kStepPropose;
  propose.sender = proposer.id;
  propose.body = std::move(w).take();
  BinaryWriter subj;
  subj.str("nr.sharing.proposal");
  subj.str(run.str());
  subj.bytes(propose.body);
  auto token = ev.issue(EvidenceType::kProposal, run, subj.data());
  propose.tokens.push_back(token.value());
  auto reply = proposer.coordinator->deliver_request(nodes[1].party->address, propose, 2000);
  ASSERT_TRUE(reply.ok());
  BinaryReader r(reply.value().body);
  EXPECT_EQ(r.u8().value(), 0u);  // vote = reject
}

TEST_F(SharingFixture, RollupCoordinatesOnce) {
  build(3);
  auto& c = *nodes[0].controller;
  ASSERT_TRUE(c.begin_changes(kSpec).ok());
  ASSERT_TRUE(c.stage(kSpec, to_bytes("ok:step1")).ok());
  ASSERT_TRUE(c.stage(kSpec, to_bytes("ok:step2")).ok());
  ASSERT_TRUE(c.stage(kSpec, to_bytes("ok:step3")).ok());
  EXPECT_TRUE(c.in_rollup(kSpec));
  const std::uint64_t rounds_before = c.rounds_started();
  auto v = c.commit_changes(kSpec);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(c.rounds_started() - rounds_before, 1u);  // one round for 3 ops
  world.network.run();
  expect_converged(to_bytes("ok:step3"), 2);
  EXPECT_FALSE(c.in_rollup(kSpec));
}

TEST_F(SharingFixture, RollupProtocolErrors) {
  build(2);
  auto& c = *nodes[0].controller;
  EXPECT_FALSE(c.stage(kSpec, to_bytes("x")).ok());          // no begin
  EXPECT_FALSE(c.commit_changes(kSpec).ok());                // no begin
  ASSERT_TRUE(c.begin_changes(kSpec).ok());
  EXPECT_FALSE(c.begin_changes(kSpec).ok());                 // double begin
}

TEST_F(SharingFixture, ConnectAddsMemberWithStateTransfer) {
  build(2);
  // A third organisation joins the group.
  auto& newcomer = world.add_party("n");
  auto membership_n = std::make_unique<membership::MembershipService>();
  auto controller_n =
      std::make_shared<B2BObjectController>(*newcomer.coordinator, *membership_n);
  newcomer.coordinator->register_handler(controller_n);

  ASSERT_TRUE(
      nodes[0].controller->connect(kSpec, {newcomer.id, newcomer.address}).ok());
  world.network.run();

  // Existing members see the new view.
  for (auto& node : nodes) {
    auto view = node.membership->view(kSpec);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().size(), 3u);
    EXPECT_TRUE(view.value().contains(newcomer.id));
  }
  // Newcomer received the replica.
  auto got = controller_n->get(kSpec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().state, to_bytes("ok:v1"));

  // And can now propose updates that reach everyone.
  nodes.push_back(SharingFixture::Node{&newcomer, std::move(membership_n), controller_n});
  auto v = controller_n->propose_update(kSpec, to_bytes("ok:from-newcomer"));
  ASSERT_TRUE(v.ok()) << v.error().code;
  world.network.run();
  expect_converged(to_bytes("ok:from-newcomer"), got.value().version + 1);
}

TEST_F(SharingFixture, ConnectOfExistingMemberRejected) {
  build(2);
  auto status = nodes[0].controller->connect(kSpec, {nodes[1].party->id,
                                                     nodes[1].party->address});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "sharing.already_member");
}

TEST_F(SharingFixture, DisconnectRemovesMember) {
  build(3);
  ASSERT_TRUE(nodes[0].controller->disconnect(kSpec, nodes[2].party->id).ok());
  world.network.run();
  for (std::size_t i = 0; i < 2; ++i) {
    auto view = nodes[i].membership->view(kSpec);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().size(), 2u);
    EXPECT_FALSE(view.value().contains(nodes[2].party->id));
  }
  // The leaver dropped its replica.
  EXPECT_FALSE(nodes[2].controller->get(kSpec).ok());
  // Remaining members can still update.
  auto v = nodes[1].controller->propose_update(kSpec, to_bytes("ok:after-leave"));
  ASSERT_TRUE(v.ok()) << v.error().code;
}

TEST_F(SharingFixture, DisconnectUnknownMemberRejected) {
  build(2);
  auto status = nodes[0].controller->disconnect(kSpec, PartyId("org:ghost"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "sharing.not_a_member");
}

TEST_F(SharingFixture, UpdateWithUnreachableMemberFails) {
  build(3);
  world.network.set_partitioned(nodes[0].party->address, nodes[2].party->address, true);
  B2BObjectController& c = *nodes[0].controller;
  auto v = c.propose_update(kSpec, to_bytes("ok:v2"));
  ASSERT_FALSE(v.ok());  // silence is not agreement — safety holds
  EXPECT_EQ(v.error().code, "sharing.rejected");
  world.network.run();
  // No replica applied the update.
  EXPECT_EQ(nodes[0].controller->get(kSpec).value().version, 1u);
  EXPECT_EQ(nodes[1].controller->get(kSpec).value().version, 1u);
}

TEST_F(SharingFixture, NotHostedErrors) {
  build(2);
  EXPECT_FALSE(nodes[0].controller->propose_update(ObjectId("obj:none"), {}).ok());
  EXPECT_FALSE(nodes[0].controller->get(ObjectId("obj:none")).ok());
  EXPECT_FALSE(nodes[0].controller->begin_changes(ObjectId("obj:none")).ok());
}

TEST_F(SharingFixture, HostRequiresGroup) {
  build(1);
  B2BObjectController& c = *nodes[0].controller;
  auto status = c.host(ObjectId("obj:ungrouped"), to_bytes("s"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "sharing.no_group");
}

TEST_F(SharingFixture, ValidatorSeesProposer) {
  build(2);
  auto recorder = std::make_shared<RecordingValidator>();
  nodes[1].controller->add_validator(kSpec, recorder);
  ASSERT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok:v2")).ok());
  ASSERT_EQ(recorder->proposers.size(), 1u);
  EXPECT_EQ(recorder->proposers[0], nodes[0].party->id);
}

TEST_F(SharingFixture, ComponentValidatorAdapter) {
  build(2);
  auto bean = std::make_shared<container::Component>();
  bean->bind("validate", [](const container::Invocation& inv) -> Result<Bytes> {
    BinaryReader r(inv.arguments);
    (void)r.str();  // object
    (void)r.str();  // proposer
    (void)r.bytes();  // current
    auto proposed = r.bytes();
    const bool ok = proposed.ok() && !proposed.value().empty() &&
                    proposed.value()[0] == 'o';
    return Bytes{static_cast<std::uint8_t>(ok ? 1 : 0)};
  });
  nodes[1].controller->add_validator(kSpec, std::make_shared<ComponentValidator>(bean));
  EXPECT_TRUE(nodes[0].controller->propose_update(kSpec, to_bytes("ok-bean")).ok());
  world.network.run();
  EXPECT_FALSE(nodes[0].controller->propose_update(kSpec, to_bytes("xbad")).ok());
}

TEST_F(SharingFixture, EntityInterceptorRoutesWritesThroughController) {
  build(2);
  // Deploy an entity bean whose method rewrites the state, fronted by the
  // B2BObject interceptor (Figure 8 wiring).
  auto entity = std::make_shared<EntityComponent>(to_bytes("ok:v1"));
  entity->bind("put", [](const container::Invocation& inv) -> Result<Bytes> {
    return inv.arguments;  // result payload == proposed new state
  });
  container::Container server_container;
  server_container.deploy(
      ServiceUri("svc://a/spec"), entity,
      container::DeploymentDescriptor{.b2b_object = true},
      {std::make_shared<B2BObjectInterceptor>(*nodes[0].controller, kSpec)});

  container::Invocation inv;
  inv.service = ServiceUri("svc://a/spec");
  inv.method = "put";
  inv.arguments = to_bytes("ok:via-entity");
  inv.caller = nodes[0].party->id;
  auto result = server_container.invoke(inv);
  ASSERT_TRUE(result.ok()) << nonrep::to_string(result.payload);
  world.network.run();
  expect_converged(to_bytes("ok:via-entity"), 2);
}

TEST_F(SharingFixture, EntityInterceptorVetoFailsInvocation) {
  build(2);
  nodes[1].controller->add_validator(kSpec, std::make_shared<PrefixValidator>());
  auto entity = std::make_shared<EntityComponent>(to_bytes("ok:v1"));
  entity->bind("put", [](const container::Invocation& inv) -> Result<Bytes> {
    return inv.arguments;
  });
  container::Container server_container;
  server_container.deploy(
      ServiceUri("svc://a/spec"), entity, container::DeploymentDescriptor{.b2b_object = true},
      {std::make_shared<B2BObjectInterceptor>(*nodes[0].controller, kSpec)});

  container::Invocation inv;
  inv.service = ServiceUri("svc://a/spec");
  inv.method = "put";
  inv.arguments = to_bytes("vetoed-state");
  inv.caller = nodes[0].party->id;
  auto result = server_container.invoke(inv);
  EXPECT_FALSE(result.ok());
  world.network.run();
  expect_converged(to_bytes("ok:v1"), 1);
}

TEST_F(SharingFixture, DescriptorDrivenRollupFacade) {
  build(3);
  // Entity bean behind the B2BObject interceptor; facade session bean
  // whose "reprice" method performs three entity operations that §4.3
  // rolls up into one coordination event.
  auto entity = std::make_shared<EntityComponent>(to_bytes("ok:v1"));
  // Capture a raw pointer: the handler is stored inside the entity itself,
  // so a shared_ptr capture would be a reference cycle (leaks under LSan).
  entity->bind("put", [e = entity.get()](const container::Invocation& inv) -> Result<Bytes> {
    e->set_state(inv.arguments);
    return inv.arguments;
  });
  container::Container server;
  server.deploy(ServiceUri("svc://a/spec-entity"), entity,
                container::DeploymentDescriptor{.b2b_object = true},
                {std::make_shared<B2BObjectInterceptor>(*nodes[0].controller, kSpec)});

  auto facade = std::make_shared<container::Component>();
  facade->bind("reprice", [&server](const container::Invocation& inv) -> Result<Bytes> {
    for (const char* step : {"ok:price-draft", "ok:price-checked", "ok:price-final"}) {
      container::Invocation op;
      op.service = ServiceUri("svc://a/spec-entity");
      op.method = "put";
      op.arguments = to_bytes(step);
      op.caller = inv.caller;
      auto r = server.invoke(op);
      if (!r.ok()) return Error::make("facade.inner_failed", nonrep::to_string(r.payload));
    }
    return to_bytes("repriced");
  });
  server.deploy(ServiceUri("svc://a/spec-facade"), facade,
                container::DeploymentDescriptor{.rollup_methods = {"reprice"}},
                {std::make_shared<RollupInterceptor>(*nodes[0].controller, kSpec,
                                                     std::set<std::string>{"reprice"})});

  const std::uint64_t rounds_before = nodes[0].controller->rounds_started();
  container::Invocation inv;
  inv.service = ServiceUri("svc://a/spec-facade");
  inv.method = "reprice";
  inv.caller = nodes[0].party->id;
  auto result = server.invoke(inv);
  ASSERT_TRUE(result.ok()) << nonrep::to_string(result.payload);
  world.network.run();
  // Three entity operations, exactly one coordination round.
  EXPECT_EQ(nodes[0].controller->rounds_started() - rounds_before, 1u);
  expect_converged(to_bytes("ok:price-final"), 2);
}

TEST_F(SharingFixture, RollupFacadeVetoFailsInvocation) {
  build(2);
  nodes[1].controller->add_validator(kSpec, std::make_shared<PrefixValidator>());
  auto entity = std::make_shared<EntityComponent>(to_bytes("ok:v1"));
  // Capture a raw pointer: the handler is stored inside the entity itself,
  // so a shared_ptr capture would be a reference cycle (leaks under LSan).
  entity->bind("put", [e = entity.get()](const container::Invocation& inv) -> Result<Bytes> {
    e->set_state(inv.arguments);
    return inv.arguments;
  });
  container::Container server;
  server.deploy(ServiceUri("svc://a/e"), entity, {},
                {std::make_shared<B2BObjectInterceptor>(*nodes[0].controller, kSpec)});
  auto facade = std::make_shared<container::Component>();
  facade->bind("break", [&server](const container::Invocation& inv) -> Result<Bytes> {
    container::Invocation op;
    op.service = ServiceUri("svc://a/e");
    op.method = "put";
    op.arguments = to_bytes("vetoed-state");
    op.caller = inv.caller;
    (void)server.invoke(op);
    return to_bytes("done");
  });
  server.deploy(ServiceUri("svc://a/f"), facade, {},
                {std::make_shared<RollupInterceptor>(*nodes[0].controller, kSpec,
                                                     std::set<std::string>{"break"})});
  container::Invocation inv;
  inv.service = ServiceUri("svc://a/f");
  inv.method = "break";
  inv.caller = nodes[0].party->id;
  auto result = server.invoke(inv);
  EXPECT_FALSE(result.ok());
  world.network.run();
  expect_converged(to_bytes("ok:v1"), 1);
  EXPECT_FALSE(nodes[0].controller->in_rollup(kSpec));  // staging cleaned up
}

class GroupSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GroupSizeSweep, ConvergesForNParties) {
  const std::size_t n = GetParam();
  test::TestWorld world(100 + n);
  std::vector<test::Party*> parties;
  std::vector<std::unique_ptr<membership::MembershipService>> memberships;
  std::vector<std::shared_ptr<B2BObjectController>> controllers;
  std::vector<membership::Member> members;
  for (std::size_t i = 0; i < n; ++i) {
    auto& p = world.add_party("p" + std::to_string(i));
    parties.push_back(&p);
    members.push_back({p.id, p.address});
  }
  for (std::size_t i = 0; i < n; ++i) {
    memberships.push_back(std::make_unique<membership::MembershipService>());
    memberships.back()->create_group(kSpec, members);
    controllers.push_back(std::make_shared<B2BObjectController>(
        *parties[i]->coordinator, *memberships.back()));
    parties[i]->coordinator->register_handler(controllers.back());
    ASSERT_TRUE(controllers.back()->host(kSpec, to_bytes("ok:v1")).ok());
  }
  auto v = controllers[0]->propose_update(kSpec, to_bytes("ok:v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
  world.network.run();
  for (std::size_t i = 0; i < n; ++i) {
    auto got = controllers[i]->get(kSpec);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().state, to_bytes("ok:v2")) << i;
    EXPECT_EQ(got.value().version, 2u) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, GroupSizeSweep, ::testing::Values(2, 3, 5, 8));

TEST_F(SharingFixture, ConcurrentProposersConvergeOverLiveRuntime) {
  // Two parties propose concurrently over the executor-backed network: the
  // per-object lock + version checks reject overlapping rounds, retries
  // eventually land both updates, and every replica converges. Regression
  // for the unguarded controller maps (a voter frame racing a proposer
  // frame on one party used to be a data race).
  build(4);
  auto pool = std::make_shared<util::ThreadPool>(3);
  world.network.set_executor(pool);
  std::thread pump([&] { world.network.run_live(); });

  constexpr int kOpsPerProposer = 3;
  std::atomic<int> committed{0};
  auto propose_loop = [&](std::size_t node_index, const std::string& tag) {
    for (int op = 0; op < kOpsPerProposer; ++op) {
      for (int attempt = 0; attempt < 12; ++attempt) {
        if (attempt > 0) {
          // Node-staggered backoff — symmetric immediate retries can
          // busy-reject each other in lockstep indefinitely.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(attempt * (static_cast<int>(node_index) + 1)));
        }
        auto current = nodes[node_index].controller->get(kSpec);
        if (!current.ok()) break;
        const Bytes next = to_bytes("ok:" + tag + "-" + std::to_string(op) + "-v" +
                                    std::to_string(current.value().version + 1));
        if (nodes[node_index].controller->propose_update(kSpec, next).ok()) {
          committed.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread t1([&] { propose_loop(0, "a"); });
  std::thread t2([&] { propose_loop(3, "d"); });
  t1.join();
  t2.join();

  world.network.drain();
  world.network.stop_live();
  pump.join();
  world.network.set_executor(nullptr);

  EXPECT_GT(committed.load(), 0);
  // All replicas agreed on the same state: one version bump per commit.
  auto reference = nodes[0].controller->get(kSpec);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.value().version, 1u + static_cast<std::uint64_t>(committed.load()));
  expect_converged(reference.value().state, reference.value().version);
  for (auto& node : nodes) {
    EXPECT_TRUE(node.party->log->verify_chain().ok()) << node.party->id.str();
  }
}

TEST_F(SharingFixture, RacingProposersOnSingleMemberGroupNeverLoseAnUpdate) {
  // With no remote voters to veto a stale base (required_votes == 1), two
  // threads racing propose_update on one replica used to both read base
  // version v and both commit v+1 — the second silently overwriting the
  // first. The freshness recheck under the controller lock must turn one
  // of them into sharing.stale_version/sharing.busy instead.
  build(1);
  constexpr int kPerThread = 25;
  std::atomic<int> committed{0};
  auto propose_loop = [&] {
    for (int op = 0; op < kPerThread; ++op) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto current = nodes[0].controller->get(kSpec);
        ASSERT_TRUE(current.ok());
        if (nodes[0].controller
                ->propose_update(kSpec, to_bytes("ok:v" +
                                                 std::to_string(current.value().version + 1)))
                .ok()) {
          committed.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread t1(propose_loop);
  std::thread t2(propose_loop);
  t1.join();
  t2.join();
  auto final_state = nodes[0].controller->get(kSpec);
  ASSERT_TRUE(final_state.ok());
  // One version bump per commit — no update was lost or double-counted.
  EXPECT_EQ(final_state.value().version,
            1u + static_cast<std::uint64_t>(committed.load()));
  EXPECT_EQ(nodes[0].controller->rounds_committed(),
            static_cast<std::uint64_t>(committed.load()));
}

TEST_F(SharingFixture, RollupStagingRacesReadsWithoutCorruption) {
  // Roll-up staging (begin/stage/commit) from one thread while another
  // hammers reads: the shared-lock read path must never observe torn
  // staging state. Single-party group so no network is involved.
  build(1);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)nodes[0].controller->get(kSpec);
      (void)nodes[0].controller->in_rollup(kSpec);
      (void)nodes[0].controller->hosts(kSpec);
    }
  });
  for (int round = 0; round < 50; ++round) {
    ASSERT_TRUE(nodes[0].controller->begin_changes(kSpec).ok());
    ASSERT_TRUE(nodes[0].controller->stage(kSpec, to_bytes("ok:draft")).ok());
    auto v = nodes[0].controller->commit_changes(kSpec);
    ASSERT_TRUE(v.ok()) << v.error().code;
  }
  stop.store(true);
  reader.join();
  auto final_state = nodes[0].controller->get(kSpec);
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(final_state.value().version, 51u);
}

}  // namespace
}  // namespace nonrep::core
