// Non-repudiable service invocation (§3.2, §4.2).
//
// Direct (no-TTP) protocol between client and server interceptors:
//
//   client -> server : req,  NRO_req                    (step 1, request)
//   server -> client : resp, NRR_req, NRO_resp          (step 2, reply)
//   client -> server : NRR_resp                         (step 3, one-way)
//
// After a complete run the client holds {NRR_req, NRO_resp} and the server
// holds {NRO_req, NRR_resp}; all four tokens are bound to one run id.
// When the server fails to produce a result the reply still carries
// interceptor-generated evidence "that the request failed or that the
// server did not respond within some agreed timeout" (§3.2) — encoded via
// the Outcome field of the canonical InvocationResult.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "util/lock_discipline.hpp"
#include "container/container.hpp"
#include "core/coordinator.hpp"

namespace nonrep::core {

inline constexpr const char* kDirectInvocationProtocol = "nr.invocation.direct";

/// Executes the client's request on the server side (normally
/// Container::invoke via the remaining interceptor chain).
using Executor = std::function<container::InvocationResult(container::Invocation&)>;

struct InvocationConfig {
  TimeMs request_timeout = 2000;   // client-side wait for step 2
  TimeMs execution_timeout = 1000; // server-side budget for the component
};

/// B2BInvocationHandler, client role (§4.2): runs the protocol for one
/// invocation and returns the server's response to the caller.
class InvocationHandler {
 public:
  virtual ~InvocationHandler() = default;
  virtual container::InvocationResult invoke(const net::Address& server,
                                             container::Invocation& inv) = 0;
};

/// Summary of the evidence gathered for a run (for audit and tests).
struct RunEvidence {
  bool has_nro_request = false;
  bool has_nrr_request = false;
  bool has_nro_response = false;
  bool has_nrr_response = false;
  /// A TTP affidavit substitutes for the client's NRR_resp (fair exchange
  /// resolve path, §3.2 "TTP signing in case of recovery").
  bool receipt_substituted = false;
  bool complete_for_client() const { return has_nrr_request && has_nro_response; }
  bool complete_for_server() const {
    return has_nro_request && (has_nrr_response || receipt_substituted);
  }
};

class DirectInvocationClient final : public InvocationHandler {
 public:
  DirectInvocationClient(Coordinator& coordinator, InvocationConfig config = {})
      : coordinator_(&coordinator), config_(config) {}

  container::InvocationResult invoke(const net::Address& server,
                                     container::Invocation& inv) override;

  /// Evidence held for the most recent run (client perspective).
  const RunEvidence& last_run_evidence() const noexcept { return last_evidence_; }
  const RunId& last_run() const noexcept { return last_run_; }

 private:
  Coordinator* coordinator_;
  InvocationConfig config_;
  RunEvidence last_evidence_{};
  RunId last_run_;
};

/// Server-side protocol handler: verifies NRO_req, executes the request
/// through `executor` (at-most-once is enforced by the container via the
/// run id in the invocation context), signs NRR_req/NRO_resp, and awaits
/// the client's NRR_resp.
///
/// The party's evidence log is the one record of a run (assumption 3): the
/// handler keeps only the runs that have replied and wait for step 3, each
/// with the response subject the NRR_resp must cover. An entry is erased
/// when the receipt is accepted or a TTP affidavit substitutes for it, so
/// a drained server holds no per-run state here. run_complete() and
/// evidence_for() read the log; they are audit and recovery calls, not
/// per-exchange ones.
class DirectInvocationServer final : public ProtocolHandler {
 public:
  DirectInvocationServer(Coordinator& coordinator, Executor executor,
                         InvocationConfig config = {});

  std::string protocol() const override { return kDirectInvocationProtocol; }
  Result<ProtocolMessage> process_request(const net::Address& from,
                                          const ProtocolMessage& msg) override;
  void process(const net::Address& from, const ProtocolMessage& msg) override;

  /// True once the log holds NRO_req and the client's NRR_resp (or a TTP
  /// affidavit standing in for it) for `run`.
  bool run_complete(const RunId& run) const;
  RunEvidence evidence_for(const RunId& run) const;

  /// Canonical response subject of a run still waiting for step 3
  /// (fair-exchange resolve needs it to ask a TTP for a substitute receipt).
  Result<Bytes> response_subject_for(const RunId& run) const;
  /// Record that a TTP affidavit now substitutes for the missing NRR_resp:
  /// the run stops waiting for step 3.
  void mark_receipt_substitute(const RunId& run);

  /// Runs that have replied and still wait for step 3.
  std::size_t pending_runs() const;

 private:
  Coordinator* coordinator_;
  Executor executor_;
  InvocationConfig config_;

  // The party's strand serialises the handler's own upcalls; the lock is
  // for application threads that read and settle the table while the
  // strand serves (response_subject_for, mark_receipt_substitute,
  // pending_runs).
  mutable util::Mutex runs_mu_{util::LockRank::kHandler, "invocation.runs"};
  std::unordered_map<RunId, Bytes> awaiting_receipt_ NONREP_GUARDED_BY(runs_mu_);
};

/// Canonical subject bytes the evidence tokens sign.
Bytes request_subject(const container::Invocation& inv);
Bytes response_subject(const RunId& run, const container::InvocationResult& result);

}  // namespace nonrep::core
