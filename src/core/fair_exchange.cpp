#include "core/fair_exchange.hpp"

#include "obs/metrics.hpp"
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
  last_outcome_ = LastOutcome::kFailed;
  auto result = run_exchange(*coordinator_, {server, std::nullopt}, inv,
                             config_.request_timeout, last_,
                             [this](const EvidenceToken& nro_req, BytesView req) {
                               return ask_ttp(nro_req, req);
                             });
  if (last_.completed) last_outcome_ = LastOutcome::kNormal;
  return result;
}

container::InvocationResult OptimisticInvocationClient::ask_ttp(const EvidenceToken& nro_req,
                                                                BytesView req) {
  using container::InvocationResult;
  using container::Outcome;

  // Recovery: ask the TTP to abort. (§3.1: the TTP "may be called upon to
  // resolve or abort a protocol run".)
  EvidenceService& ev = coordinator_->evidence();
  const RunId& run = last_.run;
  const ProtocolMessage abort_msg{.protocol = kFairTtpProtocol,
                                  .run = run,
                                  .step = kStepAbortRequest,
                                  .sender = ev.self(),
                                  .body = Bytes(req.begin(), req.end()),
                                  .tokens = {nro_req}};
  auto verdict = coordinator_->deliver_request(ttp_, abort_msg, config_.request_timeout);
  if (!verdict) {
    return InvocationResult::failure(Outcome::kTimeout, "server and TTP both unreachable");
  }
  const ProtocolMessage& reply = verdict.value();

  // No send follows the verdict to pass the write-ahead barrier for its
  // tokens, so the client passes it before it reports the verdict.
  const auto settle = [&](LastOutcome outcome, InvocationResult result) {
    if (auto durable = ev.log().barrier(); !durable) {
      return InvocationResult::failure(Outcome::kFailure, durable.error().code);
    }
    last_outcome_ = outcome;
    return result;
  };
  if (reply.step == kStepAborted) {
    if (auto abort_token = reply.token(EvidenceType::kAbort)) {
      (void)ev.accept(abort_token.value(), abort_subject(run));
    }
    return settle(LastOutcome::kAborted,
                  InvocationResult::failure(Outcome::kAborted, "run aborted via TTP"));
  }
  if (reply.step != kStepResolved) {
    return InvocationResult::failure(Outcome::kFailure, "unexpected TTP verdict");
  }
  // The resolution carries the server's deposit: the same step-2 check.
  auto checked = check_reply(ev, run, req, reply);
  if (!checked) return InvocationResult::failure(Outcome::kFailure, checked.error().code);
  last_.evidence.has_nrr_request = last_.evidence.has_nro_response = true;
  if (auto affidavit = reply.token(EvidenceType::kAffidavit)) {
    (void)ev.accept(affidavit.value(), checked.value().response_subject);
  }
  return settle(LastOutcome::kRecoveredFromTtp, std::move(checked).take().result);
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
  // The affidavit stands in for the receipt only once it is durable.
  if (auto durable = ev.log().barrier(); !durable) return durable;
  server.mark_receipt_substitute(run);
  return Status::ok_status();
}

}  // namespace nonrep::core
