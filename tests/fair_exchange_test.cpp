#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common.hpp"
#include "core/fair_exchange.hpp"
#include "core/nr_interceptor.hpp"
#include "util/serialize.hpp"
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

struct FairFixture : ::testing::Test {
  FairFixture() {
    client = &world.add_party("client");
    server = &world.add_party("server");
    ttp = &world.add_party("ttp");
    container.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
    server_handler = install_nr_server(*server->coordinator, container);
    ttp_handler = std::make_shared<OptimisticTtp>(*ttp->coordinator);
    ttp->coordinator->register_handler(ttp_handler);
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
  std::shared_ptr<OptimisticTtp> ttp_handler;
};

TEST_F(FairFixture, NormalCaseNeverContactsTtp) {
  OptimisticInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv("optimistic");
  auto result = handler.invoke("server", inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(handler.last_outcome(), OptimisticInvocationClient::LastOutcome::kNormal);
  EXPECT_EQ(ttp->log->size(), 0u);  // TTP stayed offline
  EXPECT_EQ(ttp_handler->verdict(handler.last_run()), OptimisticTtp::Verdict::kNone);
}

TEST_F(FairFixture, ClientAbortsWhenServerSilent) {
  world.network.set_partitioned("client", "server", true);
  OptimisticInvocationClient handler(*client->coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, Outcome::kAborted);
  EXPECT_EQ(handler.last_outcome(), OptimisticInvocationClient::LastOutcome::kAborted);
  EXPECT_EQ(ttp_handler->verdict(handler.last_run()), OptimisticTtp::Verdict::kAborted);
  // Client holds the TTP-signed abort token.
  EXPECT_TRUE(client->log->find(handler.last_run(), "token.abort").has_value());
}

TEST_F(FairFixture, ServerReclaimsReceiptWhenClientSilent) {
  // Execute a run where step 3 (NRR_resp) is lost: partition after step 2.
  // We emulate a receipt-withholding client by running the direct protocol
  // manually and never sending step 3.
  EvidenceService& cev = *client->evidence;
  auto inv = make_inv();
  const RunId run = cev.new_run();
  inv.context[container::kRunIdContextKey] = run.str();
  const Bytes req = request_subject(inv);
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  ASSERT_TRUE(nro_req.ok());
  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = client->id;
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(std::move(nro_req).take());
  auto reply = client->coordinator->deliver_request("server", m1, 1000);
  ASSERT_TRUE(reply.ok());
  // Client withholds NRR_resp. Server reclaims via the TTP.
  EXPECT_FALSE(server_handler->run_complete(run));
  auto status = reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000);
  ASSERT_TRUE(status.ok()) << status.error().code;
  EXPECT_TRUE(server_handler->run_complete(run));
  EXPECT_TRUE(server_handler->evidence_for(run).receipt_substituted);
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kResolved);
  EXPECT_TRUE(server->log->find(run, "token.affidavit").has_value());
}

TEST_F(FairFixture, ReclaimIsNoOpWhenReceiptArrived) {
  OptimisticInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  const RunId run = handler.last_run();
  ASSERT_TRUE(server_handler->run_complete(run));
  ASSERT_TRUE(reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000).ok());
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kNone);  // never contacted
}

// A retired run is answered from the server's evidence log: the pending
// table forgets it once NRR_resp is accepted, yet run_complete, evidence_for
// and reclaim_receipt still see the whole exchange.
TEST_F(FairFixture, RetiredRunAnsweredFromLog) {
  OptimisticInvocationClient handler(*client->coordinator, "ttp");
  auto inv = make_inv();
  ASSERT_TRUE(handler.invoke("server", inv).ok());
  world.network.run();
  const RunId run = handler.last_run();
  EXPECT_EQ(server_handler->pending_runs(), 0u);
  EXPECT_FALSE(server_handler->response_subject_for(run).ok());

  EXPECT_TRUE(server_handler->run_complete(run));
  const RunEvidence evidence = server_handler->evidence_for(run);
  EXPECT_TRUE(evidence.has_nro_request);
  EXPECT_TRUE(evidence.has_nrr_request);
  EXPECT_TRUE(evidence.has_nro_response);
  EXPECT_TRUE(evidence.has_nrr_response);
  EXPECT_FALSE(evidence.receipt_substituted);
  EXPECT_TRUE(evidence.complete_for_server());

  const auto sent = world.network.stats().sent;
  ASSERT_TRUE(reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000).ok());
  EXPECT_EQ(world.network.stats().sent, sent);  // the TTP was never contacted
  EXPECT_EQ(ttp->log->size(), 0u);
}

// A run whose client never sends step 3 stays pending until
// reclaim_receipt resolves it through the TTP, and then retires.
TEST_F(FairFixture, WithheldReceiptPendingUntilReclaimed) {
  EvidenceService& cev = *client->evidence;
  auto inv = make_inv();
  const RunId run = cev.new_run();
  inv.context[container::kRunIdContextKey] = run.str();
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, request_subject(inv));
  ASSERT_TRUE(nro_req.ok());
  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = client->id;
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(std::move(nro_req).take());
  ASSERT_TRUE(client->coordinator->deliver_request("server", m1, 1000).ok());
  world.network.run();

  EXPECT_EQ(server_handler->pending_runs(), 1u);
  EXPECT_TRUE(server_handler->response_subject_for(run).ok());
  EXPECT_FALSE(server_handler->run_complete(run));

  auto status = reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000);
  ASSERT_TRUE(status.ok()) << status.error().code;
  EXPECT_EQ(server_handler->pending_runs(), 0u);
  EXPECT_TRUE(server_handler->run_complete(run));
  EXPECT_TRUE(server_handler->evidence_for(run).receipt_substituted);
  EXPECT_FALSE(server_handler->evidence_for(run).has_nrr_response);

  // Retired: a second reclaim is answered from the log alone.
  const auto ttp_records = ttp->log->size();
  ASSERT_TRUE(reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000).ok());
  EXPECT_EQ(ttp->log->size(), ttp_records);
}

TEST_F(FairFixture, AbortThenResolveReturnsAborted) {
  // Client aborts first; server's later resolve is refused.
  world.network.set_partitioned("client", "server", true);
  OptimisticInvocationClient handler(*client->coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  ASSERT_EQ(result.outcome, Outcome::kAborted);
  const RunId run = handler.last_run();

  // Now the server somehow executed (e.g. received the request before the
  // partition) and tries to resolve: craft the deposit manually.
  world.network.set_partitioned("client", "server", false);
  EvidenceService& sev = *server->evidence;
  const Bytes req = to_bytes("some request subject");
  auto nro_req = client->evidence->issue(EvidenceType::kNroRequest, run, req);
  auto nrr_req = sev.issue(EvidenceType::kNrrRequest, run, req);
  auto result_body = container::InvocationResult::success(to_bytes("late")).canonical();
  auto parsed = container::InvocationResult::from_canonical(result_body);
  const Bytes resp = response_subject(run, parsed.value());
  auto nro_resp = sev.issue(EvidenceType::kNroResponse, run, resp);

  ProtocolMessage resolve;
  resolve.protocol = kFairTtpProtocol;
  resolve.run = run;
  resolve.step = kStepResolveRequest;
  resolve.sender = server->id;
  BinaryWriter w;
  w.bytes(req);
  w.bytes(result_body);
  resolve.body = std::move(w).take();
  resolve.tokens.push_back(nro_req.value());
  resolve.tokens.push_back(nrr_req.value());
  resolve.tokens.push_back(nro_resp.value());
  auto verdict = server->coordinator->deliver_request("ttp", resolve, 1000);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().step, kStepAborted);  // abort wins
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kAborted);
}

TEST_F(FairFixture, ResolveThenAbortHandsClientTheResolution) {
  // Server resolves first; the client's later abort returns the response.
  EvidenceService& cev = *client->evidence;
  auto inv = make_inv("recovered-payload");
  const RunId run = cev.new_run();
  inv.context[container::kRunIdContextKey] = run.str();
  const Bytes req = request_subject(inv);
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = client->id;
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(nro_req.value());
  ASSERT_TRUE(client->coordinator->deliver_request("server", m1, 1000).ok());

  // Server deposits with the TTP (client withheld the receipt).
  ASSERT_TRUE(reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 1000).ok());
  ASSERT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kResolved);

  // Client now aborts: it must receive the resolution, not an abort token.
  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = client->id;
  abort_msg.body = req;
  abort_msg.tokens.push_back(nro_req.value());
  auto verdict = client->coordinator->deliver_request("ttp", abort_msg, 1000);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().step, kStepResolved);
  auto recovered = container::InvocationResult::from_canonical(verdict.value().body);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(nonrep::to_string(recovered.value().payload), "recovered-payload");
}

TEST_F(FairFixture, AbortIsIdempotent) {
  world.network.set_partitioned("client", "server", true);
  OptimisticInvocationClient handler(*client->coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  auto inv = make_inv();
  ASSERT_EQ(handler.invoke("server", inv).outcome, Outcome::kAborted);
  const RunId run = handler.last_run();

  // Retry the abort: same verdict, no state flip.
  auto nro = client->log->find(run, "token.NRO-request");
  ASSERT_TRUE(nro.has_value());
  auto token = EvidenceToken::decode(nro->payload);
  ASSERT_TRUE(token.ok());
  auto req = client->states->get(token.value().subject);
  ASSERT_TRUE(req.ok());
  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = client->id;
  abort_msg.body = req.value();
  abort_msg.tokens.push_back(token.value());
  auto verdict = client->coordinator->deliver_request("ttp", abort_msg, 1000);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value().step, kStepAborted);
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kAborted);
}

TEST_F(FairFixture, OnlyOriginatorMayAbort) {
  EvidenceService& cev = *client->evidence;
  const RunId run = cev.new_run();
  const Bytes req = to_bytes("request-subject");
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  // The *server* tries to abort using the client's token.
  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = server->id;
  abort_msg.body = req;
  abort_msg.tokens.push_back(nro_req.value());
  auto verdict = server->coordinator->deliver_request("ttp", abort_msg, 1000);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, "fair.abort_not_originator");
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kNone);
}

TEST_F(FairFixture, ClientRecoversWhenOnlyReplyLost) {
  // Request reaches the server but the reply path is cut: client aborts,
  // server resolves afterwards -> verdicts are consistent, both hold
  // irrefutable evidence, and nobody is left without a verdict.
  world.network.set_partitioned("client", "server", true);
  OptimisticInvocationClient handler(*client->coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  auto inv = make_inv();
  auto result = handler.invoke("server", inv);
  const RunId run = handler.last_run();
  EXPECT_EQ(result.outcome, Outcome::kAborted);

  world.network.set_partitioned("client", "server", false);
  // Server never executed (request lost), so reclaim has nothing; verify
  // the TTP verdict is stable and queryable.
  EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kAborted);
}

TEST_F(FairFixture, ConcurrentAbortVsResolveReachesOneTerminalVerdict) {
  // Regression for the unguarded run-record map: an abort and a resolve
  // for the SAME run race on two threads. The TTP must serialise the
  // verdict decision — whichever wins, both parties get replies consistent
  // with the single terminal verdict.
  EvidenceService& cev = *client->evidence;
  EvidenceService& sev = *server->evidence;
  const RunId run = cev.new_run();
  const Bytes req = to_bytes("raced request subject");
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  ASSERT_TRUE(nro_req.ok());
  auto nrr_req = sev.issue(EvidenceType::kNrrRequest, run, req);
  ASSERT_TRUE(nrr_req.ok());
  const Bytes result_body = container::InvocationResult::success(to_bytes("raced")).canonical();
  auto parsed = container::InvocationResult::from_canonical(result_body);
  const Bytes resp = response_subject(run, parsed.value());
  auto nro_resp = sev.issue(EvidenceType::kNroResponse, run, resp);
  ASSERT_TRUE(nro_resp.ok());

  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = client->id;
  abort_msg.body = req;
  abort_msg.tokens.push_back(nro_req.value());

  ProtocolMessage resolve_msg;
  resolve_msg.protocol = kFairTtpProtocol;
  resolve_msg.run = run;
  resolve_msg.step = kStepResolveRequest;
  resolve_msg.sender = server->id;
  BinaryWriter w;
  w.bytes(req);
  w.bytes(result_body);
  resolve_msg.body = std::move(w).take();
  resolve_msg.tokens.push_back(nro_req.value());
  resolve_msg.tokens.push_back(nrr_req.value());
  resolve_msg.tokens.push_back(nro_resp.value());

  Result<ProtocolMessage> abort_reply = Error::make("unset", "");
  Result<ProtocolMessage> resolve_reply = Error::make("unset", "");
  std::thread t1([&] { abort_reply = ttp_handler->process_request(client->address, abort_msg); });
  std::thread t2(
      [&] { resolve_reply = ttp_handler->process_request(server->address, resolve_msg); });
  t1.join();
  t2.join();

  const auto verdict = ttp_handler->verdict(run);
  ASSERT_NE(verdict, OptimisticTtp::Verdict::kNone);
  const std::uint32_t expected_step =
      verdict == OptimisticTtp::Verdict::kAborted ? kStepAborted : kStepResolved;
  ASSERT_TRUE(abort_reply.ok()) << abort_reply.error().code;
  ASSERT_TRUE(resolve_reply.ok()) << resolve_reply.error().code;
  EXPECT_EQ(abort_reply.value().step, expected_step);
  EXPECT_EQ(resolve_reply.value().step, expected_step);
  const auto [aborted, resolved] = ttp_handler->verdict_counts();
  EXPECT_EQ(aborted + resolved, 1u);  // exactly one terminal verdict
}

TEST_F(FairFixture, ConcurrentDuplicateAbortsReissueTheSameToken) {
  // Token reissue must be idempotent: N racing aborts for one run yield N
  // identical abort tokens, not N distinct signatures over the same claim.
  EvidenceService& cev = *client->evidence;
  const RunId run = cev.new_run();
  const Bytes req = to_bytes("duplicate abort subject");
  auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
  ASSERT_TRUE(nro_req.ok());

  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = client->id;
  abort_msg.body = req;
  abort_msg.tokens.push_back(nro_req.value());

  constexpr int kThreads = 4;
  std::vector<Result<ProtocolMessage>> replies(kThreads, Error::make("unset", ""));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { replies[static_cast<std::size_t>(i)] =
                     ttp_handler->process_request(client->address, abort_msg); });
  }
  for (auto& t : threads) t.join();

  Bytes first_token;
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.error().code;
    EXPECT_EQ(reply.value().step, kStepAborted);
    auto token = reply.value().token(EvidenceType::kAbort);
    ASSERT_TRUE(token.ok());
    if (first_token.empty()) {
      first_token = token.value().encode();
    } else {
      EXPECT_EQ(token.value().encode(), first_token);
    }
  }
  const auto [aborted, resolved] = ttp_handler->verdict_counts();
  EXPECT_EQ(aborted, 1u);
  EXPECT_EQ(resolved, 0u);
}

TEST_F(FairFixture, TtpRecoveryRacesNormalCompletionOverLiveRuntime) {
  // Live concurrent runtime: one thread drives normal optimistic
  // exchanges while another runs a withheld-receipt recovery (server
  // deposit -> TTP affidavit) — the TTP serves both interleaved.
  auto pool = std::make_shared<util::ThreadPool>(3);
  world.network.set_executor(pool);
  std::thread pump([&] { world.network.run_live(); });

  std::atomic<int> normal_ok{0};
  std::thread normal([&] {
    OptimisticInvocationClient handler(*client->coordinator, "ttp");
    for (int i = 0; i < 3; ++i) {
      auto inv = make_inv("normal-" + std::to_string(i));
      if (handler.invoke("server", inv).ok() &&
          handler.last_outcome() == OptimisticInvocationClient::LastOutcome::kNormal) {
        normal_ok.fetch_add(1);
      }
    }
  });

  std::atomic<bool> recovered{false};
  std::thread withholder([&] {
    EvidenceService& cev = *client->evidence;
    auto inv = make_inv("withheld");
    const RunId run = cev.new_run();
    inv.context[container::kRunIdContextKey] = run.str();
    const Bytes req = request_subject(inv);
    auto nro_req = cev.issue(EvidenceType::kNroRequest, run, req);
    if (!nro_req.ok()) return;
    ProtocolMessage m1;
    m1.protocol = kDirectInvocationProtocol;
    m1.run = run;
    m1.step = 1;
    m1.sender = client->id;
    m1.body = container::encode_invocation(inv);
    m1.tokens.push_back(std::move(nro_req).take());
    if (!client->coordinator->deliver_request("server", m1, 2000).ok()) return;
    // Client withholds NRR_resp; the server reclaims via the TTP while the
    // other thread's normal runs keep the network busy.
    recovered.store(
        reclaim_receipt(*server->coordinator, *server_handler, run, "ttp", 2000).ok());
  });

  normal.join();
  withholder.join();
  world.network.drain();
  world.network.stop_live();
  pump.join();
  world.network.set_executor(nullptr);

  EXPECT_EQ(normal_ok.load(), 3);
  EXPECT_TRUE(recovered.load());
  const auto [aborted, resolved] = ttp_handler->verdict_counts();
  EXPECT_EQ(aborted, 0u);
  EXPECT_EQ(resolved, 1u);
  EXPECT_TRUE(client->log->verify_chain().ok());
  EXPECT_TRUE(server->log->verify_chain().ok());
  EXPECT_TRUE(ttp->log->verify_chain().ok());
}

TEST_F(FairFixture, BadStepRejected) {
  ProtocolMessage bad;
  bad.protocol = kFairTtpProtocol;
  bad.run = RunId("r");
  bad.step = 99;
  bad.sender = client->id;
  auto verdict = client->coordinator->deliver_request("ttp", bad, 1000);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, "fair.bad_step");
}

}  // namespace
}  // namespace nonrep::core
