#include "core/invocation_protocol.hpp"

#include "util/serialize.hpp"

namespace nonrep::core {

Bytes request_subject(const container::Invocation& inv) {
  BinaryWriter w;
  w.str("nr.invocation.request");
  w.bytes(inv.canonical());
  return std::move(w).take();
}

Bytes response_subject(const RunId& run, const container::InvocationResult& result) {
  BinaryWriter w;
  w.str("nr.invocation.response");
  w.str(run.str());
  w.bytes(result.canonical());
  return std::move(w).take();
}

container::InvocationResult DirectInvocationClient::invoke(const net::Address& server,
                                                           container::Invocation& inv) {
  using container::InvocationResult;
  using container::Outcome;

  EvidenceService& ev = coordinator_->evidence();
  const RunId run = ev.new_run();
  last_run_ = run;
  last_evidence_ = RunEvidence{};
  inv.context[container::kRunIdContextKey] = run.str();

  // Step 1: req + NRO_req.
  const Bytes req = request_subject(inv);
  auto nro_req = ev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) {
    return InvocationResult::failure(Outcome::kFailure,
                                     "cannot sign request: " + nro_req.error().code);
  }
  last_evidence_.has_nro_request = true;

  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = ev.self();
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(std::move(nro_req).take());

  auto reply = coordinator_->deliver_request(server, m1, config_.request_timeout);
  if (!reply) {
    // Submission failed / no reply: by the §3.2 client assurance the
    // request may or may not have been received; the client records the
    // attempt (NRO_req already logged) and reports timeout.
    return InvocationResult::failure(Outcome::kTimeout, reply.error().code);
  }

  // Step 2: verify resp + NRR_req + NRO_resp.
  auto result = container::InvocationResult::from_canonical(reply.value().body);
  if (!result) {
    return InvocationResult::failure(Outcome::kFailure,
                                     "malformed response: " + result.error().code);
  }
  const Bytes resp = response_subject(run, result.value());

  auto nrr_req = reply.value().token(EvidenceType::kNrrRequest);
  if (!nrr_req || !ev.accept(nrr_req.value(), req)) {
    return InvocationResult::failure(Outcome::kFailure, "bad NRR_req evidence");
  }
  last_evidence_.has_nrr_request = true;

  auto nro_resp = reply.value().token(EvidenceType::kNroResponse);
  if (!nro_resp || !ev.accept(nro_resp.value(), resp)) {
    return InvocationResult::failure(Outcome::kFailure, "bad NRO_resp evidence");
  }
  last_evidence_.has_nro_response = true;

  // Step 3: NRR_resp (one-way, reliable). If the receipt cannot be made
  // durable it is never sent, and the application gets that error rather
  // than a result it holds no durable evidence for.
  auto nrr_resp = ev.issue(EvidenceType::kNrrResponse, run, resp);
  if (nrr_resp) {
    last_evidence_.has_nrr_response = true;
    ProtocolMessage m3;
    m3.protocol = kDirectInvocationProtocol;
    m3.run = run;
    m3.step = 3;
    m3.sender = ev.self();
    m3.tokens.push_back(std::move(nrr_resp).take());
    if (auto sent = coordinator_->deliver(server, m3); !sent) {
      return InvocationResult::failure(Outcome::kFailure, sent.error().code);
    }
  }

  return std::move(result).take();
}

DirectInvocationServer::DirectInvocationServer(Coordinator& coordinator, Executor executor,
                                               InvocationConfig config)
    : coordinator_(&coordinator), executor_(std::move(executor)), config_(config) {}

Result<ProtocolMessage> DirectInvocationServer::process_request(const net::Address& /*from*/,
                                                                const ProtocolMessage& msg) {
  using container::InvocationResult;
  using container::Outcome;

  if (msg.step != 1) {
    return Error::make("nr.invocation.bad_step", std::to_string(msg.step));
  }
  EvidenceService& ev = coordinator_->evidence();

  auto inv = container::decode_invocation(msg.body);
  if (!inv) return inv.error();
  container::Invocation invocation = std::move(inv).take();

  // Rule 1 (§3.2): the request is passed to the server only if the client
  // provides NRO_req.
  const Bytes req = request_subject(invocation);
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (nro_req.value().issuer != invocation.caller) {
    return Error::make("nr.invocation.issuer_mismatch",
                       "NRO_req issuer is not the invocation caller");
  }
  if (auto ok = ev.accept(nro_req.value(), req); !ok) return ok.error();

  {
    util::MutexLock lk(runs_mu_);
    runs_[msg.run].evidence.has_nro_request = true;
  }

  // Execute (container enforces at-most-once on the run id). Duplicate
  // step-1 messages re-enter here; the container returns the recorded
  // result without re-execution, so the reply is regenerated losslessly.
  InvocationResult result = executor_ ? executor_(invocation)
                                      : InvocationResult::failure(Outcome::kNotExecuted,
                                                                  "no executor bound");

  const Bytes resp = response_subject(msg.run, result);
  {
    util::MutexLock lk(runs_mu_);
    runs_[msg.run].response_subject = resp;
  }

  auto nrr_req = ev.issue(EvidenceType::kNrrRequest, msg.run, req);
  if (!nrr_req) return nrr_req.error();
  auto nro_resp = ev.issue(EvidenceType::kNroResponse, msg.run, resp);
  if (!nro_resp) return nro_resp.error();
  {
    util::MutexLock lk(runs_mu_);
    RunEvidence& run_evidence = runs_[msg.run].evidence;
    run_evidence.has_nrr_request = true;
    run_evidence.has_nro_response = true;
  }

  ProtocolMessage reply;
  reply.protocol = kDirectInvocationProtocol;
  reply.run = msg.run;
  reply.step = 2;
  reply.sender = ev.self();
  reply.body = result.canonical();
  reply.tokens.push_back(std::move(nrr_req).take());
  reply.tokens.push_back(std::move(nro_resp).take());
  return reply;
}

void DirectInvocationServer::process(const net::Address& /*from*/, const ProtocolMessage& msg) {
  if (msg.step != 3) return;
  Bytes expected_subject;
  {
    util::MutexLock lk(runs_mu_);
    auto it = runs_.find(msg.run);
    if (it == runs_.end()) return;  // unknown run: ignore (assumption 4)
    expected_subject = it->second.response_subject;
  }

  auto nrr_resp = msg.token(EvidenceType::kNrrResponse);
  if (!nrr_resp) return;
  EvidenceService& ev = coordinator_->evidence();
  if (ev.accept(nrr_resp.value(), expected_subject)) {
    util::MutexLock lk(runs_mu_);
    if (auto it = runs_.find(msg.run); it != runs_.end()) {
      it->second.evidence.has_nrr_response = true;
    }
  }
}

bool DirectInvocationServer::run_complete(const RunId& run) const {
  util::MutexLock lk(runs_mu_);
  auto it = runs_.find(run);
  return it != runs_.end() && it->second.evidence.complete_for_server();
}

RunEvidence DirectInvocationServer::evidence_for(const RunId& run) const {
  util::MutexLock lk(runs_mu_);
  auto it = runs_.find(run);
  return it != runs_.end() ? it->second.evidence : RunEvidence{};
}

Result<Bytes> DirectInvocationServer::response_subject_for(const RunId& run) const {
  util::MutexLock lk(runs_mu_);
  auto it = runs_.find(run);
  if (it == runs_.end()) {
    return Error::make("nr.invocation.unknown_run", run.str());
  }
  return it->second.response_subject;
}

void DirectInvocationServer::mark_receipt_substitute(const RunId& run) {
  util::MutexLock lk(runs_mu_);
  auto it = runs_.find(run);
  if (it != runs_.end()) it->second.evidence.receipt_substituted = true;
}

}  // namespace nonrep::core
