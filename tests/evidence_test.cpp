#include <gtest/gtest.h>

#include <thread>

#include "common.hpp"
#include "core/evidence.hpp"
#include "core/protocol_message.hpp"

namespace nonrep::core {
namespace {

struct EvidenceFixture : ::testing::Test {
  EvidenceFixture() {
    a = &world.add_party("a");
    b = &world.add_party("b");
  }
  test::TestWorld world;
  test::Party* a = nullptr;
  test::Party* b = nullptr;
};

TEST_F(EvidenceFixture, IssueProducesVerifiableToken) {
  const Bytes subject = to_bytes("the request snapshot");
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r1"), subject);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token.value().issuer, a->id);
  EXPECT_EQ(token.value().run, RunId("r1"));
  EXPECT_TRUE(b->evidence->verify(token.value(), subject).ok());
}

TEST_F(EvidenceFixture, IssueLogsAndStoresSubject) {
  const Bytes subject = to_bytes("payload");
  auto token = a->evidence->issue(EvidenceType::kProposal, RunId("r2"), subject);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(a->log->size(), 1u);
  EXPECT_TRUE(a->log->find(RunId("r2"), "token.proposal").has_value());
  EXPECT_TRUE(a->states->contains(crypto::Sha256::hash(subject)));
}

TEST_F(EvidenceFixture, AcceptLogsReceivedToken) {
  const Bytes subject = to_bytes("payload");
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r3"), subject);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(b->evidence->accept(token.value(), subject).ok());
  EXPECT_TRUE(b->log->find(RunId("r3"), "token.NRO-request").has_value());
  EXPECT_TRUE(b->states->contains(crypto::Sha256::hash(subject)));
}

TEST_F(EvidenceFixture, VerifyRejectsWrongSubject) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("real"));
  ASSERT_TRUE(token.ok());
  auto status = b->evidence->verify(token.value(), to_bytes("fake"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "evidence.subject_mismatch");
}

TEST_F(EvidenceFixture, VerifyRejectsForgedIssuer) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EvidenceToken forged = token.value();
  forged.issuer = b->id;  // claim someone else made it
  EXPECT_FALSE(b->evidence->verify(forged, to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, VerifyRejectsTamperedSignature) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EvidenceToken bad = token.value();
  bad.signature[3] ^= 0x40;
  EXPECT_FALSE(b->evidence->verify(bad, to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, VerifyRejectsRetypedToken) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EvidenceToken bad = token.value();
  bad.type = EvidenceType::kNroResponse;  // change semantics
  EXPECT_FALSE(b->evidence->verify(bad, to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, VerifyRejectsRebindToOtherRun) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r-x"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EvidenceToken bad = token.value();
  bad.run = RunId("r-y");
  EXPECT_FALSE(b->evidence->verify(bad, to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, VerifyRejectsShiftedTimestamp) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EvidenceToken bad = token.value();
  bad.issued_at += 1;
  EXPECT_FALSE(b->evidence->verify(bad, to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, VerifyRejectsUnknownParty) {
  // A third party whose cert b does not hold.
  test::TestWorld other_world(99);
  auto& stranger = other_world.add_party("stranger");
  auto token = stranger.evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  EXPECT_FALSE(b->evidence->verify(token.value(), to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, RevokedSignerRejected) {
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(b->evidence->verify(token.value(), to_bytes("s")).ok());
  world.revocation().revoke(a->certificate.serial);
  world.broadcast_crl();
  EXPECT_FALSE(b->evidence->verify(token.value(), to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, NewRunIdsUnique) {
  std::set<std::string> ids;
  for (int i = 0; i < 200; ++i) ids.insert(a->evidence->new_run().str());
  EXPECT_EQ(ids.size(), 200u);
}

TEST_F(EvidenceFixture, TokenEncodeDecodeRoundTrip) {
  auto token = a->evidence->issue(EvidenceType::kVote, RunId("r"), to_bytes("s"));
  ASSERT_TRUE(token.ok());
  auto decoded = EvidenceToken::decode(token.value().encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, EvidenceType::kVote);
  EXPECT_EQ(decoded.value().run, token.value().run);
  EXPECT_EQ(decoded.value().signature, token.value().signature);
  EXPECT_TRUE(b->evidence->verify(decoded.value(), to_bytes("s")).ok());
}

TEST_F(EvidenceFixture, TokenDecodeRejectsGarbage) {
  EXPECT_FALSE(EvidenceToken::decode(to_bytes("garbage")).ok());
}

TEST_F(EvidenceFixture, TokenDecodeRejectsBadType) {
  auto token = a->evidence->issue(EvidenceType::kVote, RunId("r"), to_bytes("s"));
  Bytes enc = token.value().encode();
  // First tbs byte after the two length prefixes is the type; find & break it.
  // tbs starts at offset 4 (u32 length); type is its first byte.
  enc[4] = 0xee;
  EXPECT_FALSE(EvidenceToken::decode(enc).ok());
}

TEST_F(EvidenceFixture, EvidenceTypeNames) {
  EXPECT_EQ(to_string(EvidenceType::kNroRequest), "NRO-request");
  EXPECT_EQ(to_string(EvidenceType::kNrrResponse), "NRR-response");
  EXPECT_EQ(to_string(EvidenceType::kAffidavit), "affidavit");
  EXPECT_EQ(log_kind(EvidenceType::kVote), "token.vote");
}

TEST_F(EvidenceFixture, ProtocolMessageRoundTrip) {
  ProtocolMessage msg;
  msg.protocol = "nr.invocation.direct";
  msg.run = RunId("r-77");
  msg.step = 2;
  msg.sender = a->id;
  msg.body = to_bytes("body-bytes");
  auto t1 = a->evidence->issue(EvidenceType::kNrrRequest, msg.run, to_bytes("s1"));
  auto t2 = a->evidence->issue(EvidenceType::kNroResponse, msg.run, to_bytes("s2"));
  msg.tokens.push_back(t1.value());
  msg.tokens.push_back(t2.value());

  auto decoded = ProtocolMessage::decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().protocol, msg.protocol);
  EXPECT_EQ(decoded.value().step, 2u);
  EXPECT_EQ(decoded.value().tokens.size(), 2u);
  EXPECT_TRUE(decoded.value().token(EvidenceType::kNrrRequest).ok());
  EXPECT_TRUE(decoded.value().token(EvidenceType::kNroResponse).ok());
  EXPECT_FALSE(decoded.value().token(EvidenceType::kAbort).ok());
}

TEST_F(EvidenceFixture, ErrorReplyRoundTrip) {
  ProtocolMessage req;
  req.protocol = "x";
  req.run = RunId("r");
  req.step = 1;
  req.sender = a->id;
  auto reply = make_error_reply(req, b->id, Error::make("some.code", "some detail"));
  EXPECT_EQ(reply.protocol, kErrorProtocol);
  auto err = as_error(reply);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, "some.code");
  EXPECT_EQ(err->detail, "some detail");
  EXPECT_FALSE(as_error(req).has_value());
}

TEST_F(EvidenceFixture, RepeatedVerifyHitsObjectMemo) {
  const Bytes subject = to_bytes("snapshot");
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), subject);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(b->evidence->verify(token.value(), subject).ok());
  const std::uint64_t hits = b->evidence->credentials().memo_hits();
  ASSERT_TRUE(b->evidence->verify(token.value(), subject).ok());
  EXPECT_EQ(b->evidence->credentials().memo_hits(), hits + 1);
}

TEST_F(EvidenceFixture, AuditLogColdThenMemoized) {
  // Party a logs 30 tokens (10 distinct payloads); auditing twice must do
  // the signature work once and answer the re-audit from the segment memo.
  for (int i = 0; i < 30; ++i) {
    auto token = a->evidence->issue(EvidenceType::kNroRequest,
                                    RunId("run-" + std::to_string(i % 10)),
                                    to_bytes("subject-" + std::to_string(i % 10)));
    ASSERT_TRUE(token.ok());
  }
  auto* auditor = b->evidence.get();
  const EvidenceService::LogAuditOptions opts{.segment_records = 8};

  auto cold = auditor->audit_log(*a->log, opts);
  ASSERT_TRUE(cold.verdict.ok()) << cold.verdict.error().code;
  EXPECT_EQ(cold.records, 30u);
  EXPECT_EQ(cold.token_records, 30u);
  EXPECT_EQ(cold.segments, 4u);  // 8+8+8+6
  EXPECT_EQ(cold.segments_memoized, 0u);
  EXPECT_EQ(cold.distinct_tokens, 10u);
  EXPECT_EQ(auditor->segment_memo_size(), 4u);

  auto warm = auditor->audit_log(*a->log, opts);
  ASSERT_TRUE(warm.verdict.ok());
  EXPECT_EQ(warm.records, 30u);
  EXPECT_EQ(warm.segments_memoized, warm.segments);
  EXPECT_EQ(warm.distinct_tokens, 0u);  // no signature work at all

  // A longer log re-uses the memoized prefix and cold-verifies the tail.
  auto token = a->evidence->issue(EvidenceType::kNrrResponse, RunId("run-x"),
                                  to_bytes("fresh subject"));
  ASSERT_TRUE(token.ok());
  auto grown = auditor->audit_log(*a->log, opts);
  ASSERT_TRUE(grown.verdict.ok());
  EXPECT_EQ(grown.records, 31u);
  EXPECT_EQ(grown.segments_memoized, 3u);  // the untouched full segments
}

TEST_F(EvidenceFixture, AuditAfterAcceptHitsObjectMemo) {
  // Records carry no object id: audit_log derives the token's memo key from
  // the logged payload. It must be the key accept()'s verify stored, so the
  // audit of a party's own log re-uses what it verified on receipt.
  const Bytes subject = to_bytes("accepted snapshot");
  auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"), subject);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(b->evidence->accept(token.value(), subject).ok());
  auto report = b->evidence->audit_log(*b->log);
  ASSERT_TRUE(report.verdict.ok()) << report.verdict.error().code;
  EXPECT_EQ(report.token_records, 1u);
  EXPECT_GE(report.token_memo_hits, 1u);
}

TEST_F(EvidenceFixture, ConcurrentAuditsAgree) {
  // Four threads audit one quiescent log at once, first cold (racing to
  // fill the segment memo) and then memoized; every audit gives the same
  // verdict and counts.
  for (int i = 0; i < 40; ++i) {
    auto token = a->evidence->issue(EvidenceType::kNroRequest,
                                    RunId("run-" + std::to_string(i % 8)),
                                    to_bytes("subject-" + std::to_string(i % 8)));
    ASSERT_TRUE(token.ok());
  }
  auto* auditor = b->evidence.get();
  const EvidenceService::LogAuditOptions opts{.segment_records = 8};
  constexpr int kThreads = 4;
  auto audit_all = [&] {
    std::vector<EvidenceService::LogAuditReport> reports(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { reports[t] = auditor->audit_log(*a->log, opts); });
    }
    for (auto& th : threads) th.join();
    return reports;
  };

  for (const auto& r : audit_all()) {
    ASSERT_TRUE(r.verdict.ok()) << r.verdict.error().code;
    EXPECT_EQ(r.records, 40u);
    EXPECT_EQ(r.token_records, 40u);
    EXPECT_EQ(r.segments, 5u);
  }
  EXPECT_EQ(auditor->segment_memo_size(), 5u);
  for (const auto& r : audit_all()) {
    ASSERT_TRUE(r.verdict.ok()) << r.verdict.error().code;
    EXPECT_EQ(r.records, 40u);
    EXPECT_EQ(r.token_records, 40u);
    EXPECT_EQ(r.segments, 5u);
    EXPECT_EQ(r.segments_memoized, 5u);
    EXPECT_EQ(r.distinct_tokens, 0u);
  }
}

TEST_F(EvidenceFixture, AuditMemoInvalidatedByTrustChange) {
  for (int i = 0; i < 12; ++i) {
    auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"),
                                    to_bytes("s" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
  }
  auto* auditor = b->evidence.get();
  const EvidenceService::LogAuditOptions opts{.segment_records = 4};
  ASSERT_TRUE(auditor->audit_log(*a->log, opts).verdict.ok());
  ASSERT_EQ(auditor->audit_log(*a->log, opts).segments_memoized, 3u);

  // Revoking the issuer ticks the trust epoch: the memo must not vouch for
  // the old segments, and the cold re-audit must reject the revoked signer.
  world.revocation().revoke(a->certificate.serial);
  world.broadcast_crl();
  auto report = auditor->audit_log(*a->log, opts);
  EXPECT_EQ(report.segments_memoized, 0u);
  ASSERT_FALSE(report.verdict.ok());
  EXPECT_EQ(report.verdict.error().code, "audit.bad_signature");
}

TEST_F(EvidenceFixture, AuditDetectsTamperedChain) {
  for (int i = 0; i < 6; ++i) {
    auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"),
                                    to_bytes("s" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
  }
  // Rebuild the log's records with one doctored payload; the chain digest
  // no longer matches and the audit must say so.
  std::vector<store::LogRecord> records = a->log->records();
  records[3].payload = to_bytes("doctored");
  store::EvidenceLog tampered(
      std::make_unique<store::MemoryLogBackend>(std::move(records)),
      world.clock);
  auto report = b->evidence->audit_log(tampered);
  ASSERT_FALSE(report.verdict.ok());
  EXPECT_EQ(report.verdict.error().code, "log.chain_mismatch");
}

TEST_F(EvidenceFixture, AuditMemoHitStillRecomputesChain) {
  // A memo hit keys on the tail digest read from the very records under
  // audit. Tampering an interior record while keeping every stored digest
  // leaves the tail — and so the memo key — intact; only the rehash ties
  // the actual bytes to the key.
  for (int i = 0; i < 6; ++i) {
    auto token = a->evidence->issue(EvidenceType::kNroRequest, RunId("r"),
                                    to_bytes("s" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
  }
  auto* auditor = b->evidence.get();
  ASSERT_TRUE(auditor->audit_log(*a->log).verdict.ok());  // fills the memo

  std::vector<store::LogRecord> records = a->log->records();
  records[3].payload = to_bytes("doctored");  // chain digests left as stored
  store::EvidenceLog tampered(
      std::make_unique<store::MemoryLogBackend>(std::move(records)), world.clock);

  auto caught = auditor->audit_log(tampered);
  ASSERT_FALSE(caught.verdict.ok());
  EXPECT_EQ(caught.verdict.error().code, "log.chain_mismatch");
}

// Property sweep: any single-byte corruption of an encoded token must fail
// decode or verification — never verify successfully.
class TokenTamperProperty : public ::testing::TestWithParam<int> {};

TEST_P(TokenTamperProperty, CorruptedTokenNeverVerifies) {
  test::TestWorld world(static_cast<std::uint64_t>(GetParam()) + 1000);
  auto& a = world.add_party("a");
  auto& b = world.add_party("b");
  const Bytes subject = to_bytes("subject-" + std::to_string(GetParam()));
  auto token = a.evidence->issue(EvidenceType::kNroRequest, RunId("run"), subject);
  ASSERT_TRUE(token.ok());
  Bytes enc = token.value().encode();
  const std::size_t pos = (static_cast<std::size_t>(GetParam()) * 37) % enc.size();
  enc[pos] ^= 0x01;
  auto decoded = EvidenceToken::decode(enc);
  if (decoded.ok()) {
    EXPECT_FALSE(b.evidence->verify(decoded.value(), subject).ok())
        << "corruption at byte " << pos << " verified!";
  }
}

INSTANTIATE_TEST_SUITE_P(CorruptionPositions, TokenTamperProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace nonrep::core
