// Inline TTP trust domains (Figure 3(a)/(b)).
//
// "Communication between organisations A and B is routed via Trusted
// Third Parties. ... However constructed, the inline TTP is an
// interceptor between the organisations and is responsible for ensuring
// that agreed safety and liveness guarantees are delivered to honest
// parties."
//
// The relay verifies and archives every token that passes through it and
// countersigns the exchange with an affidavit, so either party can settle
// a dispute from the TTP's log alone. A chain of relays (client -> TTP_A
// -> TTP_B -> server) realises the distributed inline construction: each
// relay consults its router for the next hop.
//
// The client is run_exchange (invocation_protocol.hpp) routed through the
// relay, also accepting its affidavit; the relay checks the server's reply
// with the same check_reply.
//
// The relay never blocks its strand on the next hop: it forwards with
// Coordinator::deliver_request_async and answers the client from the
// continuation, so any number of relayed exchanges can be in flight on a
// fixed worker pool.
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "core/invocation_protocol.hpp"

namespace nonrep::core {

inline constexpr const char* kInlineTtpProtocol = "nr.invocation.inline";

/// Maps the final server address to the next hop: another relay's address,
/// or nullopt to contact the server's direct handler.
using Router = std::function<std::optional<net::Address>(const net::Address& server)>;

/// The relay handler installed at a TTP's coordinator.
class InlineTtpRelay final : public ProtocolHandler {
 public:
  InlineTtpRelay(Coordinator& coordinator, Router router, InvocationConfig config = {});

  std::string protocol() const override { return kInlineTtpProtocol; }
  Result<ProtocolMessage> process_request(const net::Address& from,
                                          const ProtocolMessage& msg) override;
  void process(const net::Address& from, const ProtocolMessage& msg) override;

  std::uint64_t relayed() const noexcept { return relayed_.load(std::memory_order_relaxed); }

 private:
  /// Step 2 on the way back: verify and archive the next hop's evidence,
  /// countersign it, and build the reply to the client.
  Result<ProtocolMessage> relay_reply(const RunId& run, const Bytes& req,
                                      const Result<ProtocolMessage>& reply);

  Coordinator* coordinator_;
  Router router_;
  InvocationConfig config_;
  // Read by application threads while the relay runs.
  std::atomic<std::uint64_t> relayed_{0};
};

/// Client handler that routes the invocation through an inline TTP.
class InlineTtpInvocationClient final : public InvocationHandler {
 public:
  InlineTtpInvocationClient(Coordinator& coordinator, net::Address ttp,
                            InvocationConfig config = {})
      : coordinator_(&coordinator), ttp_(std::move(ttp)), config_(config) {}

  container::InvocationResult invoke(const net::Address& server,
                                     container::Invocation& inv) override;

  const RunEvidence& last_run_evidence() const noexcept { return last_.evidence; }
  /// The TTP affidavit countersigning the last exchange, if received.
  bool last_run_has_affidavit() const noexcept { return last_.affidavit; }

 private:
  Coordinator* coordinator_;
  net::Address ttp_;
  InvocationConfig config_;
  ClientRun last_;
};

/// Inline-TTP wire body: the final server address plus the inner payload.
Bytes encode_relay_body(const net::Address& server, BytesView inner);
Result<std::pair<net::Address, Bytes>> decode_relay_body(BytesView body);

}  // namespace nonrep::core
