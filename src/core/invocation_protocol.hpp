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
//
// Every client runs the exchange through one routine, run_exchange, with
// one step-2 check, check_reply. The direct client sends to the server;
// the inline TTP client (ttp.hpp) sends through a relay and also accepts
// its affidavit; the optimistic client (fair_exchange.hpp) adds the TTP
// abort/resolve subprotocol for a step 1 that gets no reply.
#pragma once

#include <functional>
#include <memory>
#include <optional>
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

/// Where steps 1 and 3 go. For an inline TTP (Fig. 3(a)) `next_hop` is the
/// relay and both bodies are wrapped (encode_relay_body) for `relay_to`.
struct ExchangeRoute {
  net::Address next_hop;
  std::optional<net::Address> relay_to;
};

/// The client side of the most recent run.
struct ClientRun {
  RunId run;
  RunEvidence evidence;
  bool affidavit = false;  // a relay's affidavit was accepted
  bool completed = false;  // got past step 3 without a TTP
};

/// The client half of §3.2 along `route`: opens the `fx.invoke` span,
/// sends step 1 with NRO_req, runs check_reply, accepts a relay's affidavit
/// (a missing or bad one does not fail the run) and sends step 3 with
/// NRR_resp; `out` records the run. A step 1 without an answer goes to
/// `on_unanswered` with its NRO_req and request subject; without it, an
/// `rpc.timeout` fails with kTimeout and any other error with kFailure.
using OnUnanswered = std::function<container::InvocationResult(const EvidenceToken&, BytesView)>;
container::InvocationResult run_exchange(Coordinator& coordinator, const ExchangeRoute& route,
                                         container::Invocation& inv, TimeMs timeout,
                                         ClientRun& out, const OnUnanswered& on_unanswered = {});

class DirectInvocationClient final : public InvocationHandler {
 public:
  DirectInvocationClient(Coordinator& coordinator, InvocationConfig config = {})
      : coordinator_(&coordinator), config_(config) {}

  container::InvocationResult invoke(const net::Address& server,
                                     container::Invocation& inv) override;

  /// Evidence held for the most recent run (client perspective).
  const RunEvidence& last_run_evidence() const noexcept { return last_.evidence; }
  const RunId& last_run() const noexcept { return last_.run; }

 private:
  Coordinator* coordinator_;
  InvocationConfig config_;
  ClientRun last_;
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

/// Canonical subject bytes the evidence tokens sign. The request subject
/// wraps the invocation's canonical bytes (Invocation::canonical(), or a
/// step-1 body that decode_invocation accepted, which is canonical).
Bytes request_subject(BytesView invocation);
Bytes request_subject(const container::Invocation& inv);
Bytes response_subject(const RunId& run, const container::InvocationResult& result);

/// A step-2 reply that passed check_reply.
struct CheckedReply {
  container::InvocationResult result;
  Bytes response_subject;
};

/// The step-2 check of every client and the inline TTP relay: decode the
/// result, accept NRR_req over `request` and NRO_resp over the response
/// subject. Errors: "malformed response: <code>", "bad NRR_req evidence",
/// "bad NRO_resp evidence" (the cause in `detail`).
Result<CheckedReply> check_reply(EvidenceService& ev, const RunId& run, BytesView request,
                                 const ProtocolMessage& reply);

}  // namespace nonrep::core
