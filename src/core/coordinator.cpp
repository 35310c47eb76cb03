#include "core/coordinator.hpp"

namespace nonrep::core {

Coordinator::Coordinator(std::shared_ptr<EvidenceService> evidence, net::SimNetwork& network,
                         net::Address address, net::ReliableConfig reliable)
    : evidence_(std::move(evidence)), rpc_(network, std::move(address), reliable) {
  rpc_.set_request_handler([this](const net::Address& from, BytesView raw) {
    return on_request(from, raw);
  });
  rpc_.set_notify_handler([this](const net::Address& from, BytesView raw) {
    on_notify(from, raw);
  });
}

void Coordinator::register_handler(std::shared_ptr<ProtocolHandler> handler) {
  util::WriteLock lk(handlers_mu_);
  handlers_[handler->protocol()] = std::move(handler);
}

bool Coordinator::has_handler(const std::string& protocol) const {
  util::ReadLock lk(handlers_mu_);
  return handlers_.contains(protocol);
}

Status Coordinator::deliver(const net::Address& to, const ProtocolMessage& msg) {
  // Holding any subsystem lock here is a latent deadlock: the send may pump
  // the network inline (single-threaded mode) or block behind the very
  // strand that needs the held lock to make progress.
  NONREP_ASSERT_NO_LOCKS_HELD("Coordinator::deliver");
  if (auto durable = evidence_->log().barrier(); !durable) return durable;
  rpc_.notify(to, msg.encode());
  return Status::ok_status();
}

Result<ProtocolMessage> Coordinator::deliver_request(const net::Address& to,
                                                     const ProtocolMessage& msg,
                                                     TimeMs timeout) {
  NONREP_ASSERT_NO_LOCKS_HELD("Coordinator::deliver_request");
  if (auto durable = evidence_->log().barrier(); !durable) return durable.error();
  auto raw = rpc_.call(to, msg.encode(), timeout);
  if (!raw) return raw.error();
  auto reply = ProtocolMessage::decode(raw.value());
  if (!reply) return reply.error();
  if (auto err = as_error(reply.value())) return *err;
  return reply;
}

Bytes Coordinator::on_request(const net::Address& from, BytesView raw) {
  auto msg = ProtocolMessage::decode(raw);
  if (!msg) {
    ProtocolMessage bad;
    bad.sender = party();
    return make_error_reply(bad, party(), msg.error()).encode();
  }
  std::shared_ptr<ProtocolHandler> handler;
  {
    util::ReadLock lk(handlers_mu_);
    if (auto it = handlers_.find(msg.value().protocol); it != handlers_.end()) {
      handler = it->second;
    }
  }
  if (!handler) {
    return make_error_reply(msg.value(), party(),
                            Error::make("coordinator.no_handler", msg.value().protocol))
        .encode();
  }
  auto reply = handler->process_request(from, msg.value());
  if (!reply) return make_error_reply(msg.value(), party(), reply.error()).encode();
  // The reply carries tokens this party just staged: if they cannot be made
  // durable, the caller gets an error with no tokens instead.
  if (auto durable = evidence_->log().barrier(); !durable) {
    return make_error_reply(msg.value(), party(), durable.error()).encode();
  }
  return reply.value().encode();
}

void Coordinator::on_notify(const net::Address& from, BytesView raw) {
  auto msg = ProtocolMessage::decode(raw);
  if (!msg) return;  // malformed one-way messages are dropped (assumption 4)
  std::shared_ptr<ProtocolHandler> handler;
  {
    util::ReadLock lk(handlers_mu_);
    if (auto it = handlers_.find(msg.value().protocol); it != handlers_.end()) {
      handler = it->second;
    }
  }
  if (handler) handler->process(from, msg.value());
}

}  // namespace nonrep::core
