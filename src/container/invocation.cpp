#include "container/invocation.hpp"

#include "util/serialize.hpp"

namespace nonrep::container {

Bytes Invocation::canonical() const {
  BinaryWriter w;
  w.str(service.str());
  w.str(method);
  w.bytes(arguments);
  w.str(caller.str());
  w.u32(static_cast<std::uint32_t>(context.size()));
  for (const auto& [k, v] : context) {  // std::map iterates sorted => canonical
    w.str(k);
    w.str(v);
  }
  return std::move(w).take();
}

std::string to_string(Outcome o) {
  switch (o) {
    case Outcome::kSuccess: return "success";
    case Outcome::kFailure: return "failure";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kAborted: return "aborted";
    case Outcome::kNotExecuted: return "not-executed";
  }
  return "unknown";
}

InvocationResult InvocationResult::success(Bytes payload) {
  return InvocationResult{Outcome::kSuccess, std::move(payload)};
}

InvocationResult InvocationResult::failure(Outcome outcome, std::string detail) {
  return InvocationResult{outcome, to_bytes(detail)};
}

Bytes InvocationResult::canonical() const {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(outcome));
  w.bytes(payload);
  return std::move(w).take();
}

Result<InvocationResult> InvocationResult::from_canonical(BytesView b) {
  BinaryReader r(b);
  auto outcome = r.u8();
  if (!outcome) return outcome.error();
  auto payload = r.bytes();
  if (!payload) return payload.error();
  InvocationResult res;
  res.outcome = static_cast<Outcome>(outcome.value());
  res.payload = payload.value();
  return res;
}

Bytes encode_invocation(const Invocation& inv) { return inv.canonical(); }

Result<Invocation> decode_invocation(BytesView b) {
  BinaryReader r(b);
  Invocation inv;
  auto service = r.str();
  if (!service) return service.error();
  inv.service = ServiceUri(service.value());
  auto method = r.str();
  if (!method) return method.error();
  inv.method = method.value();
  auto args = r.bytes();
  if (!args) return args.error();
  inv.arguments = args.value();
  auto caller = r.str();
  if (!caller) return caller.error();
  inv.caller = PartyId(caller.value());
  auto n = r.u32();
  if (!n) return n.error();
  // Only canonical bytes are accepted, so an accepted body re-encodes to
  // exactly the bytes received: context keys strictly increasing (no
  // duplicates) and nothing after the last entry.
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto k = r.str();
    if (!k) return k.error();
    auto v = r.str();
    if (!v) return v.error();
    if (!inv.context.empty() && k.value() <= inv.context.rbegin()->first) {
      return Error::make("container.bad_invocation", "context keys not strictly increasing");
    }
    inv.context.emplace_hint(inv.context.end(), k.value(), v.value());
  }
  if (!r.at_end()) return Error::make("container.bad_invocation", "trailing bytes");
  return inv;
}

}  // namespace nonrep::container
