#include "core/protocol_message.hpp"

#include <algorithm>

#include "util/serialize.hpp"

namespace nonrep::core {

Bytes ProtocolMessage::encode() const {
  std::size_t size = prefixed_size(protocol.size()) + prefixed_size(run.str().size()) +
                     kU32Size + prefixed_size(sender.str().size()) +
                     prefixed_size(body.size()) + kU32Size;
  for (const auto& t : tokens) size += prefixed_size(t.encoded_size());
  BinaryWriter w(size);
  w.str(protocol);
  w.str(run.str());
  w.u32(step);
  w.str(sender.str());
  w.bytes(body);
  w.u32(static_cast<std::uint32_t>(tokens.size()));
  for (const auto& t : tokens) {
    w.u32(static_cast<std::uint32_t>(t.encoded_size()));
    t.encode_into(w);
  }
  return std::move(w).take();
}

Result<ProtocolMessage> ProtocolMessage::decode(BytesView b) {
  BinaryReader r(b);
  ProtocolMessage msg;
  auto protocol = r.str_view();
  if (!protocol) return protocol.error();
  msg.protocol = protocol.value();
  auto run = r.str_view();
  if (!run) return run.error();
  msg.run = RunId(std::string(run.value()));
  auto step = r.u32();
  if (!step) return step.error();
  msg.step = step.value();
  auto sender = r.str_view();
  if (!sender) return sender.error();
  msg.sender = PartyId(std::string(sender.value()));
  auto body = r.bytes_view();
  if (!body) return body.error();
  msg.body.assign(body.value().begin(), body.value().end());
  auto count = r.u32();
  if (!count) return count.error();
  if (count.value() > 1024) {
    return Error::make("protocol.too_many_tokens", std::to_string(count.value()));
  }
  // Each token takes at least its u32 length prefix, so the count the
  // remaining bytes can hold bounds the reservation.
  msg.tokens.reserve(std::min<std::size_t>(count.value(), r.remaining() / kU32Size));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto raw = r.bytes_view();
    if (!raw) return raw.error();
    auto token = EvidenceToken::decode(raw.value());
    if (!token) return token.error();
    msg.tokens.push_back(std::move(token).take());
  }
  return msg;
}

Result<EvidenceToken> ProtocolMessage::token(EvidenceType type) const {
  for (const auto& t : tokens) {
    if (t.type == type) return t;
  }
  return Error::make("protocol.missing_token", to_string(type));
}

ProtocolMessage make_error_reply(const ProtocolMessage& request, const PartyId& sender,
                                 const Error& error) {
  ProtocolMessage msg;
  msg.protocol = kErrorProtocol;
  msg.run = request.run;
  msg.step = request.step + 1;
  msg.sender = sender;
  BinaryWriter w;
  w.str(error.code);
  w.str(error.detail);
  msg.body = std::move(w).take();
  return msg;
}

std::optional<Error> as_error(const ProtocolMessage& msg) {
  if (msg.protocol != kErrorProtocol) return std::nullopt;
  BinaryReader r(msg.body);
  auto code = r.str();
  auto detail = r.str();
  return Error::make(code ? code.value() : "protocol.error",
                     detail ? detail.value() : "");
}

}  // namespace nonrep::core
