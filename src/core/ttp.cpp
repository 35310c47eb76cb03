#include "core/ttp.hpp"

#include "util/serialize.hpp"

namespace nonrep::core {

Bytes encode_relay_body(const net::Address& server, BytesView inner) {
  BinaryWriter w;
  w.str(server);
  w.bytes(inner);
  return std::move(w).take();
}

Result<std::pair<net::Address, Bytes>> decode_relay_body(BytesView body) {
  BinaryReader r(body);
  auto server = r.str();
  if (!server) return server.error();
  auto inner = r.bytes();
  if (!inner) return inner.error();
  return std::make_pair(server.value(), inner.value());
}

InlineTtpRelay::InlineTtpRelay(Coordinator& coordinator, Router router,
                               InvocationConfig config)
    : coordinator_(&coordinator), router_(std::move(router)), config_(config) {}

Result<ProtocolMessage> InlineTtpRelay::process_request(const net::Address& /*from*/,
                                                        const ProtocolMessage& msg) {
  EvidenceService& ev = coordinator_->evidence();
  auto body = decode_relay_body(msg.body);
  if (!body) return body.error();
  const auto& [server, inner] = body.value();

  // Archive duty: verify the client's NRO_req against the inner request
  // before relaying (assumption 4: only well-constructed messages pass).
  auto inv = container::decode_invocation(inner);
  if (!inv) return inv.error();
  const Bytes req = request_subject(inv.value());
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (auto ok = ev.accept(nro_req.value(), req); !ok) return ok.error();

  // Forward: either to the next relay (distributed inline TTP) or to the
  // server's direct protocol handler.
  const std::optional<net::Address> next_hop = router_(server);
  ProtocolMessage forward;
  forward.run = msg.run;
  forward.step = 1;
  forward.sender = ev.self();
  forward.tokens = msg.tokens;  // the client's evidence travels intact
  if (next_hop) {
    forward.protocol = kInlineTtpProtocol;
    forward.body = msg.body;
  } else {
    forward.protocol = kDirectInvocationProtocol;
    forward.body = inner;
  }

  // Answer the client from the continuation, which runs on this party's
  // strand once the next hop replies or the call times out.
  Coordinator::ReplyHandler answer = coordinator_->defer_reply(msg);
  coordinator_->deliver_request_async(
      next_hop ? *next_hop : server, forward, config_.request_timeout,
      [this, answer, run = msg.run, req](const Result<ProtocolMessage>& reply) {
        answer(relay_reply(run, req, reply));
      });
  return ProtocolMessage{};  // discarded: `answer` replies
}

Result<ProtocolMessage> InlineTtpRelay::relay_reply(const RunId& run, const Bytes& req,
                                                    const Result<ProtocolMessage>& reply) {
  if (!reply) return reply.error();
  EvidenceService& ev = coordinator_->evidence();

  // Verify and archive the server-side evidence before relaying back.
  auto result = container::InvocationResult::from_canonical(reply.value().body);
  if (!result) return result.error();
  const Bytes resp = response_subject(run, result.value());
  auto nrr_req = reply.value().token(EvidenceType::kNrrRequest);
  if (!nrr_req) return nrr_req.error();
  if (auto ok = ev.accept(nrr_req.value(), req); !ok) return ok.error();
  auto nro_resp = reply.value().token(EvidenceType::kNroResponse);
  if (!nro_resp) return nro_resp.error();
  if (auto ok = ev.accept(nro_resp.value(), resp); !ok) return ok.error();

  // Countersign: the TTP's affidavit over the response subject binds the
  // whole exchange in the TTP's archive.
  auto affidavit = ev.issue(EvidenceType::kAffidavit, run, resp);
  if (!affidavit) return affidavit.error();

  relayed_.fetch_add(1, std::memory_order_relaxed);
  ProtocolMessage out = reply.value();
  out.protocol = kInlineTtpProtocol;
  out.sender = ev.self();
  out.tokens.push_back(std::move(affidavit).take());
  return out;
}

void InlineTtpRelay::process(const net::Address& /*from*/, const ProtocolMessage& msg) {
  // Step 3 relay: archive the client's NRR_resp and forward it.
  if (msg.step != 3) return;
  auto body = decode_relay_body(msg.body);
  if (!body) return;
  const auto& [server, inner] = body.value();

  EvidenceService& ev = coordinator_->evidence();
  auto nrr_resp = msg.token(EvidenceType::kNrrResponse);
  if (!nrr_resp) return;
  // `inner` carries the response subject bytes the receipt covers.
  if (!ev.accept(nrr_resp.value(), inner)) return;

  const std::optional<net::Address> next_hop = router_(server);
  ProtocolMessage forward;
  forward.run = msg.run;
  forward.step = 3;
  forward.sender = ev.self();
  forward.tokens = msg.tokens;
  if (next_hop) {
    forward.protocol = kInlineTtpProtocol;
    forward.body = msg.body;
  } else {
    forward.protocol = kDirectInvocationProtocol;
    forward.body.clear();
  }
  // A receipt the relay could not archive durably is not forwarded.
  (void)coordinator_->deliver(next_hop ? *next_hop : server, forward);
}

container::InvocationResult InlineTtpInvocationClient::invoke(const net::Address& server,
                                                              container::Invocation& inv) {
  using container::InvocationResult;
  using container::Outcome;

  EvidenceService& ev = coordinator_->evidence();
  const RunId run = ev.new_run();
  last_evidence_ = RunEvidence{};
  last_affidavit_ = false;
  inv.context[container::kRunIdContextKey] = run.str();

  const Bytes req = request_subject(inv);
  auto nro_req = ev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) {
    return InvocationResult::failure(Outcome::kFailure, nro_req.error().code);
  }
  last_evidence_.has_nro_request = true;

  ProtocolMessage m1;
  m1.protocol = kInlineTtpProtocol;
  m1.run = run;
  m1.step = 1;
  m1.sender = ev.self();
  m1.body = encode_relay_body(server, container::encode_invocation(inv));
  m1.tokens.push_back(std::move(nro_req).take());

  auto reply = coordinator_->deliver_request(ttp_, m1, config_.request_timeout);
  if (!reply) {
    return InvocationResult::failure(Outcome::kTimeout, reply.error().code);
  }

  auto result = container::InvocationResult::from_canonical(reply.value().body);
  if (!result) {
    return InvocationResult::failure(Outcome::kFailure, result.error().code);
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
  if (auto affidavit = reply.value().token(EvidenceType::kAffidavit);
      affidavit && ev.accept(affidavit.value(), resp)) {
    last_affidavit_ = true;
  }

  // Step 3 via the TTP: receipt for the response. The relay body carries
  // the response subject so the TTP can check what it archives.
  auto nrr_resp = ev.issue(EvidenceType::kNrrResponse, run, resp);
  if (nrr_resp) {
    last_evidence_.has_nrr_response = true;
    ProtocolMessage m3;
    m3.protocol = kInlineTtpProtocol;
    m3.run = run;
    m3.step = 3;
    m3.sender = ev.self();
    m3.body = encode_relay_body(server, resp);
    m3.tokens.push_back(std::move(nrr_resp).take());
    if (auto sent = coordinator_->deliver(ttp_, m3); !sent) {
      return InvocationResult::failure(Outcome::kFailure, sent.error().code);
    }
  }
  return std::move(result).take();
}

}  // namespace nonrep::core
