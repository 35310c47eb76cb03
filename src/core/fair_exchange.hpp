// Optimistic fair exchange with an *offline* TTP (Figure 3(c)).
//
// "These TTP(s) are not directly involved in all communication between
// the parties but may be called upon to resolve or abort a protocol run
// to deliver fairness and/or liveness guarantees to honest parties."
//
// Normal case: the direct three-message exchange (run_exchange). Recovery:
//   * A client whose step-2 reply never arrives asks the TTP to ABORT the
//     run. If the server had already deposited the response evidence, the
//     TTP answers with that resolution instead — the client is never left
//     worse off than completing the run. A resolution passes check_reply
//     like a server's reply, and the verdict is durable before it returns.
//   * A server that never receives NRR_resp deposits its evidence with
//     the TTP (RESOLVE) and obtains a TTP-signed affidavit substituting
//     the receipt.
// Per run the TTP reaches exactly one terminal verdict (aborted XOR
// resolved); both subprotocols are idempotent — the fairness invariant
// the tests check.
#pragma once


#include "util/lock_discipline.hpp"
#include "core/invocation_protocol.hpp"

namespace nonrep::core {

inline constexpr const char* kFairTtpProtocol = "nr.fair.ttp";

// Subprotocol steps.
inline constexpr std::uint32_t kStepAbortRequest = 10;
inline constexpr std::uint32_t kStepResolveRequest = 11;
inline constexpr std::uint32_t kStepAborted = 12;
inline constexpr std::uint32_t kStepResolved = 13;

/// The offline TTP's resolve/abort service.
class OptimisticTtp final : public ProtocolHandler {
 public:
  explicit OptimisticTtp(Coordinator& coordinator) : coordinator_(&coordinator) {}

  std::string protocol() const override { return kFairTtpProtocol; }
  Result<ProtocolMessage> process_request(const net::Address& from,
                                          const ProtocolMessage& msg) override;
  void process(const net::Address&, const ProtocolMessage&) override {}

  enum class Verdict { kNone, kAborted, kResolved };
  Verdict verdict(const RunId& run) const;

  /// Terminal verdicts reached so far: {aborted, resolved}. A run counts
  /// in exactly one bucket — the fairness invariant scenario audits check.
  std::pair<std::size_t, std::size_t> verdict_counts() const;

 private:
  Result<ProtocolMessage> handle_abort(const ProtocolMessage& msg);
  Result<ProtocolMessage> handle_resolve(const ProtocolMessage& msg);

  struct RunRecord {
    Verdict verdict = Verdict::kNone;
    // Resolution deposit (set when verdict == kResolved):
    Bytes response_body;              // canonical InvocationResult
    Bytes response_subject;
    std::vector<EvidenceToken> deposit_tokens;
    EvidenceToken affidavit;          // TTP-signed substitute receipt
    EvidenceToken abort_token;        // set when verdict == kAborted
  };

  Coordinator* coordinator_;
  // Each run reaches exactly one terminal verdict, and a repeated request
  // reissues the recorded token instead of minting a second one. The TTP's
  // strand already serialises abort and resolve requests; the mutex guards
  // the records against application threads reading verdicts. Lock ordering:
  // runs_mu_ may be held across EvidenceService::issue (leaf log/store
  // locks) but never across Coordinator::deliver/deliver_request.
  mutable util::Mutex runs_mu_{util::LockRank::kHandler, "ttp.runs"};
  std::map<RunId, RunRecord> runs_ NONREP_GUARDED_BY(runs_mu_);
};

/// Canonical subject of an abort token.
Bytes abort_subject(const RunId& run);

/// Client handler: direct exchange with TTP fallback on timeout.
class OptimisticInvocationClient final : public InvocationHandler {
 public:
  OptimisticInvocationClient(Coordinator& coordinator, net::Address ttp,
                             InvocationConfig config = {})
      : coordinator_(&coordinator), ttp_(std::move(ttp)), config_(config) {}

  container::InvocationResult invoke(const net::Address& server,
                                     container::Invocation& inv) override;

  enum class LastOutcome { kNormal, kAborted, kRecoveredFromTtp, kFailed };
  LastOutcome last_outcome() const noexcept { return last_outcome_; }
  const RunId& last_run() const noexcept { return last_.run; }
  const RunEvidence& last_run_evidence() const noexcept { return last_.evidence; }

 private:
  /// The abort/resolve subprotocol for a step 1 that got no reply.
  container::InvocationResult ask_ttp(const EvidenceToken& nro_req, BytesView req);

  Coordinator* coordinator_;
  net::Address ttp_;
  InvocationConfig config_;
  LastOutcome last_outcome_ = LastOutcome::kNormal;
  ClientRun last_;
};

/// Server-side recovery: deposit the run's evidence with the TTP and mark
/// the receipt substituted once its affidavit is durable. Call when NRR_resp is overdue.
Status reclaim_receipt(Coordinator& coordinator, DirectInvocationServer& server,
                       const RunId& run, const net::Address& ttp, TimeMs timeout);

}  // namespace nonrep::core
