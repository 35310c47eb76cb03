#include "core/baseline.hpp"

namespace nonrep::core {

using container::InvocationResult;
using container::Outcome;

container::InvocationResult PlainInvocationClient::invoke(const net::Address& server,
                                                          container::Invocation& inv) {
  ProtocolMessage m;
  m.protocol = kPlainProtocol;
  m.run = coordinator_->evidence().new_run();
  m.step = 1;
  m.sender = coordinator_->party();
  m.body = container::encode_invocation(inv);

  auto reply = coordinator_->deliver_request(server, m, config_.request_timeout);
  if (!reply) return InvocationResult::failure(Outcome::kTimeout, reply.error().code);
  auto result = InvocationResult::from_canonical(reply.value().body);
  if (!result) return InvocationResult::failure(Outcome::kFailure, result.error().code);
  return std::move(result).take();
}

Result<ProtocolMessage> PlainInvocationServer::process_request(const net::Address& /*from*/,
                                                               const ProtocolMessage& msg) {
  auto inv = container::decode_invocation(msg.body);
  if (!inv) return inv.error();
  container::Invocation invocation = std::move(inv).take();
  invocation.context[container::kRunIdContextKey] = msg.run.str();
  InvocationResult result = executor_(invocation);

  ProtocolMessage reply;
  reply.protocol = kPlainProtocol;
  reply.run = msg.run;
  reply.step = 2;
  reply.sender = coordinator_->party();
  reply.body = result.canonical();
  return reply;
}

container::InvocationResult AsymmetricInvocationClient::invoke(const net::Address& server,
                                                               container::Invocation& inv) {
  EvidenceService& ev = coordinator_->evidence();
  const RunId run = ev.new_run();
  inv.context[container::kRunIdContextKey] = run.str();

  const Bytes req = request_subject(inv);
  auto nro_req = ev.issue(EvidenceType::kNroRequest, run, req);
  if (!nro_req) return InvocationResult::failure(Outcome::kFailure, nro_req.error().code);

  ProtocolMessage m;
  m.protocol = kAsymmetricProtocol;
  m.run = run;
  m.step = 1;
  m.sender = ev.self();
  m.body = container::encode_invocation(inv);
  m.tokens.push_back(std::move(nro_req).take());

  auto reply = coordinator_->deliver_request(server, m, config_.request_timeout);
  if (!reply) return InvocationResult::failure(Outcome::kTimeout, reply.error().code);
  auto result = InvocationResult::from_canonical(reply.value().body);
  if (!result) return InvocationResult::failure(Outcome::kFailure, result.error().code);
  // No NRR_req / NRO_resp: the client holds no evidence of the exchange.
  return std::move(result).take();
}

Result<ProtocolMessage> AsymmetricInvocationServer::process_request(
    const net::Address& /*from*/, const ProtocolMessage& msg) {
  EvidenceService& ev = coordinator_->evidence();

  auto inv = container::decode_invocation(msg.body);
  if (!inv) return inv.error();
  container::Invocation invocation = std::move(inv).take();

  const Bytes req = request_subject(msg.body);
  auto nro_req = msg.token(EvidenceType::kNroRequest);
  if (!nro_req) return nro_req.error();
  if (auto ok = ev.accept(nro_req.value(), req); !ok) return ok.error();

  InvocationResult result = executor_(invocation);

  ProtocolMessage reply;
  reply.protocol = kAsymmetricProtocol;
  reply.run = msg.run;
  reply.step = 2;
  reply.sender = ev.self();
  reply.body = result.canonical();
  return reply;
}

}  // namespace nonrep::core
