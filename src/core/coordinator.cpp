#include "core/coordinator.hpp"

namespace nonrep::core {

namespace {
Result<ProtocolMessage> decode_reply(const Result<Bytes>& raw) {
  if (!raw) return raw.error();
  auto reply = ProtocolMessage::decode(raw.value());
  if (!reply) return reply.error();
  if (auto err = as_error(reply.value())) return *err;
  return reply;
}
}  // namespace

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
  // Holding any subsystem lock here is a latent deadlock: the barrier may
  // wait on the journal, and the party's own upcalls may need the lock.
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
  return decode_reply(rpc_.call(to, msg.encode(), timeout));
}

void Coordinator::deliver_request_async(const net::Address& to, const ProtocolMessage& msg,
                                        TimeMs timeout, ReplyHandler done) {
  NONREP_ASSERT_NO_LOCKS_HELD("Coordinator::deliver_request_async");
  if (auto durable = evidence_->log().barrier(); !durable) {
    done(durable.error());
    return;
  }
  rpc_.call_async(to, msg.encode(), timeout,
                  [done = std::move(done)](Result<Bytes> raw) { done(decode_reply(raw)); });
}

Coordinator::ReplyHandler Coordinator::defer_reply(const ProtocolMessage& request) {
  ProtocolMessage head;  // run and step, for an error reply
  head.run = request.run;
  head.step = request.step;
  return [this, send = rpc_.defer_reply(), head](const Result<ProtocolMessage>& reply) {
    NONREP_ASSERT_NO_LOCKS_HELD("Coordinator deferred reply");
    send(encode_reply(head, reply));
  };
}

Bytes Coordinator::encode_reply(const ProtocolMessage& request,
                                const Result<ProtocolMessage>& reply) {
  if (!reply) return make_error_reply(request, party(), reply.error()).encode();
  // The reply carries tokens this party just staged: if they cannot be made
  // durable, the caller gets an error with no tokens instead.
  if (auto durable = evidence_->log().barrier(); !durable) {
    return make_error_reply(request, party(), durable.error()).encode();
  }
  return reply.value().encode();
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
  if (rpc_.reply_deferred()) return {};  // answered through defer_reply()
  return encode_reply(msg.value(), reply);
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
