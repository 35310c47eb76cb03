#include "core/invocation_protocol.hpp"

#include "core/ttp.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace nonrep::core {

namespace {

constexpr std::string_view kRequestSubjectTag = "nr.invocation.request";
constexpr std::string_view kResponseSubjectTag = "nr.invocation.response";

}  // namespace

Bytes request_subject(BytesView invocation) {
  BinaryWriter w(prefixed_size(kRequestSubjectTag.size()) + prefixed_size(invocation.size()));
  w.str(kRequestSubjectTag);
  w.bytes(invocation);
  return std::move(w).take();
}

Bytes request_subject(const container::Invocation& inv) { return request_subject(inv.canonical()); }

Bytes response_subject(const RunId& run, const container::InvocationResult& result) {
  const Bytes canonical = result.canonical();
  BinaryWriter w(prefixed_size(kResponseSubjectTag.size()) + prefixed_size(run.str().size()) +
                 prefixed_size(canonical.size()));
  w.str(kResponseSubjectTag);
  w.str(run.str());
  w.bytes(canonical);
  return std::move(w).take();
}

Result<CheckedReply> check_reply(EvidenceService& ev, const RunId& run, BytesView request,
                                 const ProtocolMessage& reply) {
  auto result = container::InvocationResult::from_canonical(reply.body);
  if (!result) {
    return Error::make("malformed response: " + result.error().code, result.error().detail);
  }
  CheckedReply checked{std::move(result).take(), {}};
  checked.response_subject = response_subject(run, checked.result);

  auto nrr_req = reply.token(EvidenceType::kNrrRequest);
  Status ok = nrr_req ? ev.accept(nrr_req.value(), request) : Status(nrr_req.error());
  if (!ok) return Error::make("bad NRR_req evidence", ok.error().code);
  auto nro_resp = reply.token(EvidenceType::kNroResponse);
  ok = nro_resp ? ev.accept(nro_resp.value(), checked.response_subject) : nro_resp.error();
  if (!ok) return Error::make("bad NRO_resp evidence", ok.error().code);
  return checked;
}

container::InvocationResult run_exchange(Coordinator& coordinator, const ExchangeRoute& route,
                                         container::Invocation& inv, TimeMs timeout,
                                         ClientRun& out, const OnUnanswered& on_unanswered) {
  using container::InvocationResult;
  using container::Outcome;

  EvidenceService& ev = coordinator.evidence();
  out = ClientRun{ev.new_run(), {}, false, false};
  const RunId& run = out.run;
  inv.context[container::kRunIdContextKey] = run.str();

  // Root span of the exchange: evidence appended while it is open (in
  // classic mode also by the handlers deliver_request pumps) carries its id.
  obs::Span span("fx.invoke", run.str(), ev.self().str());

  const auto message = [&](std::uint32_t step, Bytes inner, EvidenceToken token) {
    return ProtocolMessage{
        .protocol = route.relay_to ? kInlineTtpProtocol : kDirectInvocationProtocol,
        .run = run,
        .step = step,
        .sender = ev.self(),
        .body = route.relay_to ? encode_relay_body(*route.relay_to, inner) : std::move(inner),
        .tokens = {std::move(token)}};
  };

  // Step 1: req + NRO_req. The invocation is encoded once, for the body
  // and the subject.
  Bytes body = container::encode_invocation(inv);
  const Bytes req = request_subject(body);
  auto nro_req = ev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) {
    return InvocationResult::failure(Outcome::kFailure,
                                     "cannot sign request: " + nro_req.error().code);
  }
  out.evidence.has_nro_request = true;
  const ProtocolMessage m1 = message(1, std::move(body), std::move(nro_req).take());

  auto reply = coordinator.deliver_request(route.next_hop, m1, timeout);
  if (!reply) {
    // No answer: by the §3.2 client assurance the request may or may not
    // have been received. NRO_req is logged; `on_unanswered` (the
    // optimistic client's TTP) takes the run over. Otherwise only a missing
    // reply is a timeout; an error reply or a failed barrier is a failure.
    if (on_unanswered) return on_unanswered(m1.tokens.front(), req);
    const bool timed_out = reply.error().code == "rpc.timeout";
    return InvocationResult::failure(timed_out ? Outcome::kTimeout : Outcome::kFailure,
                                     reply.error().code);
  }

  // Step 2: verify resp + NRR_req + NRO_resp, then a relay's affidavit.
  auto checked = check_reply(ev, run, req, reply.value());
  if (!checked) return InvocationResult::failure(Outcome::kFailure, checked.error().code);
  out.evidence.has_nrr_request = out.evidence.has_nro_response = true;
  const Bytes& resp = checked.value().response_subject;
  if (route.relay_to) {
    auto affidavit = reply.value().token(EvidenceType::kAffidavit);
    out.affidavit = affidavit && ev.accept(affidavit.value(), resp);
  }

  // Step 3: NRR_resp (one-way, reliable); a relay also gets the response
  // subject it checks the receipt against. The send's barrier covers every
  // token accepted above: if it fails, the application gets that error.
  if (auto nrr_resp = ev.issue(EvidenceType::kNrrResponse, run, resp)) {
    out.evidence.has_nrr_response = true;
    auto sent = coordinator.deliver(
        route.next_hop, message(3, route.relay_to ? resp : Bytes{}, std::move(nrr_resp).take()));
    if (!sent) return InvocationResult::failure(Outcome::kFailure, sent.error().code);
  }
  out.completed = true;
  return std::move(checked).take().result;
}

container::InvocationResult DirectInvocationClient::invoke(const net::Address& server,
                                                           container::Invocation& inv) {
  return run_exchange(*coordinator_, {server, std::nullopt}, inv, config_.request_timeout, last_);
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
  // provides NRO_req. decode_invocation accepts only canonical bytes, so
  // the body is the invocation's canonical encoding.
  const Bytes req = request_subject(msg.body);
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (nro_req.value().issuer != invocation.caller) {
    return Error::make("nr.invocation.issuer_mismatch",
                       "NRO_req issuer is not the invocation caller");
  }
  if (auto ok = ev.accept(nro_req.value(), req); !ok) return ok.error();

  // Execute (container enforces at-most-once on the run id). Duplicate
  // step-1 messages re-enter here; the container returns the recorded
  // result without re-execution, so the reply is regenerated losslessly.
  InvocationResult result = executor_ ? executor_(invocation)
                                      : InvocationResult::failure(Outcome::kNotExecuted,
                                                                  "no executor bound");

  Bytes resp = response_subject(msg.run, result);
  auto nrr_req = ev.issue(EvidenceType::kNrrRequest, msg.run, req);
  if (!nrr_req) return nrr_req.error();
  auto nro_resp = ev.issue(EvidenceType::kNroResponse, msg.run, resp);
  if (!nro_resp) return nro_resp.error();
  // A replay of a run whose receipt is already in must not wait for step 3
  // again. Only replays (the container answered from its at-most-once
  // table) pay for reading the log.
  const bool settled =
      invocation.context.contains(container::kReplayedContextKey) && run_complete(msg.run);
  if (!settled) {
    util::MutexLock lk(runs_mu_);
    awaiting_receipt_[msg.run] = std::move(resp);
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
    auto it = awaiting_receipt_.find(msg.run);
    if (it == awaiting_receipt_.end()) return;  // unknown or finished run: ignore (assumption 4)
    expected_subject = it->second;
  }

  auto nrr_resp = msg.token(EvidenceType::kNrrResponse);
  if (!nrr_resp) return;
  if (coordinator_->evidence().accept(nrr_resp.value(), expected_subject)) {
    util::MutexLock lk(runs_mu_);
    awaiting_receipt_.erase(msg.run);
  }
}

bool DirectInvocationServer::run_complete(const RunId& run) const {
  return evidence_for(run).complete_for_server();
}

RunEvidence DirectInvocationServer::evidence_for(const RunId& run) const {
  RunEvidence evidence;
  for (const store::LogRecord& rec : coordinator_->evidence().log().find_run(run)) {
    if (rec.kind == log_kind(EvidenceType::kNroRequest)) evidence.has_nro_request = true;
    if (rec.kind == log_kind(EvidenceType::kNrrRequest)) evidence.has_nrr_request = true;
    if (rec.kind == log_kind(EvidenceType::kNroResponse)) evidence.has_nro_response = true;
    if (rec.kind == log_kind(EvidenceType::kNrrResponse)) evidence.has_nrr_response = true;
    if (rec.kind == log_kind(EvidenceType::kAffidavit)) evidence.receipt_substituted = true;
  }
  return evidence;
}

Result<Bytes> DirectInvocationServer::response_subject_for(const RunId& run) const {
  util::MutexLock lk(runs_mu_);
  auto it = awaiting_receipt_.find(run);
  if (it == awaiting_receipt_.end()) {
    return Error::make("nr.invocation.unknown_run", run.str());
  }
  return it->second;
}

void DirectInvocationServer::mark_receipt_substitute(const RunId& run) {
  util::MutexLock lk(runs_mu_);
  awaiting_receipt_.erase(run);
}

std::size_t DirectInvocationServer::pending_runs() const {
  util::MutexLock lk(runs_mu_);
  return awaiting_receipt_.size();
}

}  // namespace nonrep::core
