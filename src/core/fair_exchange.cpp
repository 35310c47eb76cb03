#include "core/fair_exchange.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace nonrep::core {

namespace {

// Handles resolved once; recording is lock-free so it is safe under
// runs_mu_ (new-verdict tallies: the fleet-wide abort/resolve mix).
struct TtpMetrics {
  obs::Counter& aborted = obs::Registry::global().counter("ttp.verdict_aborted");
  obs::Counter& resolved = obs::Registry::global().counter("ttp.verdict_resolved");
};

TtpMetrics& ttp_metrics() {
  static TtpMetrics m;
  return m;
}

}  // namespace

Bytes abort_subject(const RunId& run) {
  BinaryWriter w;
  w.str("nr.fair.abort");
  w.str(run.str());
  return std::move(w).take();
}

namespace {

Bytes encode_resolve_body(BytesView req_subject, BytesView response_body) {
  BinaryWriter w;
  w.bytes(req_subject);
  w.bytes(response_body);
  return std::move(w).take();
}

Result<std::pair<Bytes, Bytes>> decode_resolve_body(BytesView body) {
  BinaryReader r(body);
  auto req = r.bytes();
  if (!req) return req.error();
  auto resp = r.bytes();
  if (!resp) return resp.error();
  return std::make_pair(req.value(), resp.value());
}

}  // namespace

OptimisticTtp::Verdict OptimisticTtp::verdict(const RunId& run) const {
  util::MutexLock lock(runs_mu_);
  auto it = runs_.find(run);
  return it != runs_.end() ? it->second.verdict : Verdict::kNone;
}

std::pair<std::size_t, std::size_t> OptimisticTtp::verdict_counts() const {
  util::MutexLock lock(runs_mu_);
  std::size_t aborted = 0;
  std::size_t resolved = 0;
  for (const auto& [run, record] : runs_) {
    if (record.verdict == Verdict::kAborted) ++aborted;
    if (record.verdict == Verdict::kResolved) ++resolved;
  }
  return {aborted, resolved};
}

Result<ProtocolMessage> OptimisticTtp::process_request(const net::Address& /*from*/,
                                                       const ProtocolMessage& msg) {
  switch (msg.step) {
    case kStepAbortRequest:
      return handle_abort(msg);
    case kStepResolveRequest:
      return handle_resolve(msg);
    default:
      return Error::make("fair.bad_step", std::to_string(msg.step));
  }
}

Result<ProtocolMessage> OptimisticTtp::handle_abort(const ProtocolMessage& msg) {
  EvidenceService& ev = coordinator_->evidence();

  // Only the party that originated the request may abort it.
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (nro_req.value().issuer != msg.sender) {
    return Error::make("fair.abort_not_originator", msg.sender.str());
  }
  if (auto ok = ev.accept(nro_req.value(), msg.body); !ok) return ok.error();

  // Verdict decision under the run-table lock: a racing resolve for the
  // same run serialises behind us and observes our terminal verdict.
  util::MutexLock lock(runs_mu_);
  RunRecord& record = runs_[msg.run];
  ProtocolMessage reply;
  reply.protocol = kFairTtpProtocol;
  reply.run = msg.run;
  reply.sender = ev.self();

  switch (record.verdict) {
    case Verdict::kResolved: {
      // The server deposited first: hand the client the resolution — it
      // gets the response it asked for, never less.
      reply.step = kStepResolved;
      reply.body = record.response_body;
      reply.tokens = record.deposit_tokens;
      reply.tokens.push_back(record.affidavit);
      return reply;
    }
    case Verdict::kAborted: {
      reply.step = kStepAborted;
      reply.tokens.push_back(record.abort_token);
      return reply;
    }
    case Verdict::kNone: {
      auto abort_token = ev.issue(EvidenceType::kAbort, msg.run, abort_subject(msg.run));
      if (!abort_token) return abort_token.error();
      record.verdict = Verdict::kAborted;
      ttp_metrics().aborted.add();
      record.abort_token = std::move(abort_token).take();
      reply.step = kStepAborted;
      reply.tokens.push_back(record.abort_token);
      return reply;
    }
  }
  return Error::make("fair.internal", "unreachable");
}

Result<ProtocolMessage> OptimisticTtp::handle_resolve(const ProtocolMessage& msg) {
  EvidenceService& ev = coordinator_->evidence();

  auto body = decode_resolve_body(msg.body);
  if (!body) return body.error();
  const auto& [req_subject, response_body] = body.value();

  auto result = container::InvocationResult::from_canonical(response_body);
  if (!result) return result.error();
  const Bytes resp_subject = response_subject(msg.run, result.value());

  // The deposit must carry the full well-constructed evidence set.
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (auto ok = ev.accept(nro_req.value(), req_subject); !ok) return ok.error();
  auto nrr_req = msg.token(EvidenceType::kNrrRequest);
  if (!nrr_req) return nrr_req.error();
  if (nrr_req.value().issuer != msg.sender) {
    return Error::make("fair.resolve_not_responder", msg.sender.str());
  }
  if (auto ok = ev.accept(nrr_req.value(), req_subject); !ok) return ok.error();
  auto nro_resp = msg.token(EvidenceType::kNroResponse);
  if (!nro_resp) return nro_resp.error();
  if (auto ok = ev.accept(nro_resp.value(), resp_subject); !ok) return ok.error();

  // Same lock as handle_abort: abort-vs-resolve on one run is serialised.
  util::MutexLock lock(runs_mu_);
  RunRecord& record = runs_[msg.run];
  ProtocolMessage reply;
  reply.protocol = kFairTtpProtocol;
  reply.run = msg.run;
  reply.sender = ev.self();

  switch (record.verdict) {
    case Verdict::kAborted: {
      // Abort wins: the client walked away first. The server keeps its
      // own evidence; the TTP confirms the abort verdict.
      reply.step = kStepAborted;
      reply.tokens.push_back(record.abort_token);
      return reply;
    }
    case Verdict::kResolved: {
      reply.step = kStepResolved;
      reply.tokens.push_back(record.affidavit);
      return reply;
    }
    case Verdict::kNone: {
      auto affidavit = ev.issue(EvidenceType::kAffidavit, msg.run, resp_subject);
      if (!affidavit) return affidavit.error();
      record.verdict = Verdict::kResolved;
      ttp_metrics().resolved.add();
      record.response_body = response_body;
      record.response_subject = resp_subject;
      record.deposit_tokens = msg.tokens;
      record.affidavit = affidavit.value();
      reply.step = kStepResolved;
      reply.tokens.push_back(std::move(affidavit).take());
      return reply;
    }
  }
  return Error::make("fair.internal", "unreachable");
}

container::InvocationResult OptimisticInvocationClient::invoke(const net::Address& server,
                                                               container::Invocation& inv) {
  using container::InvocationResult;
  using container::Outcome;

  EvidenceService& ev = coordinator_->evidence();
  const RunId run = ev.new_run();
  last_run_ = run;
  last_outcome_ = LastOutcome::kFailed;
  inv.context[container::kRunIdContextKey] = run.str();

  // Root span of the exchange: evidence appended below (here, and by the
  // strand handlers this thread's nested deliver_request calls run inline)
  // is annotated with this span id, tying the run's records to the trace.
  obs::Span span("fx.invoke", run.str(), ev.self().str());

  const Bytes req = request_subject(inv);
  auto nro_req = ev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) return InvocationResult::failure(Outcome::kFailure, nro_req.error().code);
  const EvidenceToken nro_req_token = std::move(nro_req).take();

  ProtocolMessage m1;
  m1.protocol = kDirectInvocationProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = ev.self();
  m1.body = container::encode_invocation(inv);
  m1.tokens.push_back(nro_req_token);

  auto reply = coordinator_->deliver_request(server, m1, config_.request_timeout);
  if (reply) {
    auto result = container::InvocationResult::from_canonical(reply.value().body);
    if (!result) {
      return InvocationResult::failure(Outcome::kFailure, result.error().code);
    }
    const Bytes resp = response_subject(run, result.value());
    auto nrr_req = reply.value().token(EvidenceType::kNrrRequest);
    if (!nrr_req || !ev.accept(nrr_req.value(), req)) {
      return InvocationResult::failure(Outcome::kFailure, "bad NRR_req evidence");
    }
    auto nro_resp = reply.value().token(EvidenceType::kNroResponse);
    if (!nro_resp || !ev.accept(nro_resp.value(), resp)) {
      return InvocationResult::failure(Outcome::kFailure, "bad NRO_resp evidence");
    }
    if (auto nrr_resp = ev.issue(EvidenceType::kNrrResponse, run, resp)) {
      ProtocolMessage m3;
      m3.protocol = kDirectInvocationProtocol;
      m3.run = run;
      m3.step = 3;
      m3.sender = ev.self();
      m3.tokens.push_back(std::move(nrr_resp).take());
      // Not durable, not sent: the server resolves the run through the TTP.
      if (auto sent = coordinator_->deliver(server, m3); !sent) {
        return InvocationResult::failure(Outcome::kFailure, sent.error().code);
      }
    }
    last_outcome_ = LastOutcome::kNormal;
    return std::move(result).take();
  }

  // Recovery: ask the TTP to abort. (§3.1: the TTP "may be called upon to
  // resolve or abort a protocol run".)
  ProtocolMessage abort_msg;
  abort_msg.protocol = kFairTtpProtocol;
  abort_msg.run = run;
  abort_msg.step = kStepAbortRequest;
  abort_msg.sender = ev.self();
  abort_msg.body = req;
  abort_msg.tokens.push_back(nro_req_token);

  auto verdict = coordinator_->deliver_request(ttp_, abort_msg, config_.request_timeout);
  if (!verdict) {
    return InvocationResult::failure(Outcome::kTimeout,
                                     "server and TTP both unreachable");
  }

  if (verdict.value().step == kStepAborted) {
    if (auto abort_token = verdict.value().token(EvidenceType::kAbort)) {
      (void)ev.accept(abort_token.value(), abort_subject(run));
    }
    last_outcome_ = LastOutcome::kAborted;
    return InvocationResult::failure(Outcome::kAborted, "run aborted via TTP");
  }

  if (verdict.value().step == kStepResolved) {
    auto result = container::InvocationResult::from_canonical(verdict.value().body);
    if (!result) {
      return InvocationResult::failure(Outcome::kFailure, result.error().code);
    }
    const Bytes resp = response_subject(run, result.value());
    if (auto nro_resp = verdict.value().token(EvidenceType::kNroResponse);
        nro_resp && ev.accept(nro_resp.value(), resp)) {
      if (auto affidavit = verdict.value().token(EvidenceType::kAffidavit)) {
        (void)ev.accept(affidavit.value(), resp);
      }
      last_outcome_ = LastOutcome::kRecoveredFromTtp;
      return std::move(result).take();
    }
    return InvocationResult::failure(Outcome::kFailure, "bad resolution evidence");
  }
  return InvocationResult::failure(Outcome::kFailure, "unexpected TTP verdict");
}

Status reclaim_receipt(Coordinator& coordinator, DirectInvocationServer& server,
                       const RunId& run, const net::Address& ttp, TimeMs timeout) {
  if (server.run_complete(run)) return Status::ok_status();
  EvidenceService& ev = coordinator.evidence();

  auto resp_subject = server.response_subject_for(run);
  if (!resp_subject) return resp_subject.error();

  // Reassemble the deposit from the evidence log and the state store.
  auto load_token = [&](EvidenceType type) -> Result<EvidenceToken> {
    auto record = ev.log().find(run, log_kind(type));
    if (!record) return Error::make("fair.missing_evidence", to_string(type));
    return EvidenceToken::decode(record->payload);
  };
  auto nro_req = load_token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  auto nrr_req = load_token(EvidenceType::kNrrRequest);
  if (!nrr_req) return nrr_req.error();
  auto nro_resp = load_token(EvidenceType::kNroResponse);
  if (!nro_resp) return nro_resp.error();

  auto req_subject = ev.states().get(nro_req.value().subject);
  if (!req_subject) return req_subject.error();

  // Extract the canonical response body from the response subject
  // ("nr.invocation.response" | run | result-canonical).
  BinaryReader r(resp_subject.value());
  auto tag = r.str();
  if (!tag) return tag.error();
  auto run_str = r.str();
  if (!run_str) return run_str.error();
  auto response_body = r.bytes();
  if (!response_body) return response_body.error();

  ProtocolMessage resolve;
  resolve.protocol = kFairTtpProtocol;
  resolve.run = run;
  resolve.step = kStepResolveRequest;
  resolve.sender = ev.self();
  resolve.body = encode_resolve_body(req_subject.value(), response_body.value());
  resolve.tokens.push_back(std::move(nro_req).take());
  resolve.tokens.push_back(std::move(nrr_req).take());
  resolve.tokens.push_back(std::move(nro_resp).take());

  auto verdict = coordinator.deliver_request(ttp, resolve, timeout);
  if (!verdict) return verdict.error();

  if (verdict.value().step == kStepAborted) {
    return Error::make("fair.aborted", "client aborted the run before deposit");
  }
  if (verdict.value().step != kStepResolved) {
    return Error::make("fair.unexpected_verdict", std::to_string(verdict.value().step));
  }
  auto affidavit = verdict.value().token(EvidenceType::kAffidavit);
  if (!affidavit) return affidavit.error();
  if (auto ok = ev.accept(affidavit.value(), resp_subject.value()); !ok) return ok;
  server.mark_receipt_substitute(run);
  return Status::ok_status();
}

}  // namespace nonrep::core
