#include "core/ttp.hpp"

#include "util/serialize.hpp"

namespace nonrep::core {

Bytes encode_relay_body(const net::Address& server, BytesView inner) {
  BinaryWriter w(prefixed_size(server.size()) + prefixed_size(inner.size()));
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
  return std::make_pair(std::move(server).take(), std::move(inner).take());
}

namespace {

// `msg` as relay `self` passes it on: as is to a relay, or to the server with `direct_body`.
ProtocolMessage forwarded(const ProtocolMessage& msg, const PartyId& self, bool to_relay,
                          BytesView direct_body) {
  ProtocolMessage out = msg;  // the client's evidence travels intact
  out.sender = self;
  if (!to_relay) {
    out.protocol = kDirectInvocationProtocol;
    out.body.assign(direct_body.begin(), direct_body.end());
  }
  return out;
}

}  // namespace

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
  const Bytes req = request_subject(inner);
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (auto ok = ev.accept(nro_req.value(), req); !ok) return ok.error();

  // Forward: either to the next relay (distributed inline TTP) or to the
  // server's direct protocol handler.
  const std::optional<net::Address> next_hop = router_(server);
  const ProtocolMessage forward = forwarded(msg, ev.self(), next_hop.has_value(), inner);

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
  auto checked = check_reply(ev, run, req, reply.value());
  if (!checked) return checked.error();

  // Countersign: the TTP's affidavit over the response subject binds the
  // whole exchange in the TTP's archive.
  auto affidavit = ev.issue(EvidenceType::kAffidavit, run, checked.value().response_subject);
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

  // A receipt the relay could not archive durably is not forwarded.
  const std::optional<net::Address> next_hop = router_(server);
  (void)coordinator_->deliver(next_hop ? *next_hop : server,
                              forwarded(msg, ev.self(), next_hop.has_value(), {}));
}

container::InvocationResult InlineTtpInvocationClient::invoke(const net::Address& server,
                                                              container::Invocation& inv) {
  return run_exchange(*coordinator_, {ttp_, server}, inv, config_.request_timeout, last_);
}

}  // namespace nonrep::core
