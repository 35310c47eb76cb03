// B2BCoordinator service and protocol-handler registry (§4.1).
//
//   B2BCoordinatorRemote {
//     void deliver(B2BProtocolMessage msg);
//     B2BProtocolMessage deliverRequest(B2BProtocolMessage msg);
//   }
//
// Each trusted interceptor exposes one Coordinator endpoint. Custom
// protocol handlers are registered with it; the coordinator maps each
// incoming message to the handler registered for its protocol string and
// provides handlers access to the local, protocol-agnostic services
// (evidence, credentials, state storage) via EvidenceService.
#pragma once

#include <map>
#include <memory>

#include "util/lock_discipline.hpp"
#include "core/protocol_message.hpp"
#include "net/rpc.hpp"

namespace nonrep::core {

/// B2BProtocolHandler (§4.1): processes incoming steps of one protocol.
///
/// Concurrency contract (PR-4 runtime): a party's strand serialises its
/// upcalls, BUT a handler that blocks on a nested deliver_request yields
/// the strand — the resumed frame then runs concurrently with its
/// successors, so every stateful handler guards its own per-run/per-object
/// state with its own mutex (DirectInvocationServer::runs_mu_,
/// OptimisticTtp::runs_mu_, B2BObjectController::mu_, ...).
///
/// Lock ordering: the single source of truth is util::LockRank in
/// src/util/lock_discipline.hpp — every mutex in the tree is a ranked
/// nonrep::util wrapper and may only be acquired with strictly increasing
/// rank. The slice relevant here, outermost first: handler mutexes
/// (kHandler: DirectInvocationServer/OptimisticTtp runs_mu_,
/// B2BObjectController mu_) < MembershipService (kMembership) <
/// EvidenceService leaf locks (kEvidenceRng/kEvidenceLog/kStateStore) <
/// pki/crypto caches. So a handler mutex may be held across
/// EvidenceService::issue/accept and membership reads, but must NEVER be
/// held across Coordinator::deliver / deliver_request (the nested wait
/// would deadlock with the handler's own incoming traffic) — both entry
/// points abort under NONREP_ASSERT_NO_LOCKS_HELD in checked builds, and
/// the lockdep runtime aborts on any rank inversion with the full held
/// stack. Coordinator itself only takes handlers_mu_ (kCoordinator)
/// around registry lookup, released before the handler runs.
///
/// obs instruments (obs::Registry counters/gauges/histograms, span
/// finish) sit BELOW every lock above: recording is lock-free (or, for
/// span finish, takes only the tracer's own leaf ring mutex) and never
/// calls back into the system, so instruments may be bumped while holding
/// any of locks 1–3. The converse obligation: no subsystem lock — and in
/// particular nothing across deliver / deliver_request — may be held
/// waiting on an obs snapshot/export, which takes the registry map mutex
/// and every histogram's shard walk; snapshots belong on quiescent or
/// dedicated reporting paths, never inside a handler.
class ProtocolHandler {
 public:
  virtual ~ProtocolHandler() = default;

  /// Key this handler serves, e.g. "nr.invocation.direct".
  virtual std::string protocol() const = 0;

  /// Synchronous step: serve a deliverRequest and produce the reply.
  virtual Result<ProtocolMessage> process_request(const net::Address& from,
                                                  const ProtocolMessage& msg) = 0;

  /// Asynchronous step: consume a deliver (one-way) message.
  virtual void process(const net::Address& from, const ProtocolMessage& msg) = 0;
};

class Coordinator {
 public:
  Coordinator(std::shared_ptr<EvidenceService> evidence, net::SimNetwork& network,
              net::Address address, net::ReliableConfig reliable = {});

  EvidenceService& evidence() noexcept { return *evidence_; }
  const PartyId& party() const noexcept { return evidence_->self(); }
  const net::Address& address() const noexcept { return rpc_.address(); }
  net::SimNetwork& network() noexcept { return rpc_.network(); }

  void register_handler(std::shared_ptr<ProtocolHandler> handler);
  bool has_handler(const std::string& protocol) const;

  // Write-ahead rule: a message leaves this party only after every record
  // it has staged is durable (EvidenceLog::barrier). deliver,
  // deliver_request and the reply of a served request all pass that
  // barrier first; if it fails, nothing is sent and the journal.* error
  // comes back instead.

  /// deliver(msg): reliable one-way delivery to a remote coordinator.
  Status deliver(const net::Address& to, const ProtocolMessage& msg);

  /// deliverRequest(msg): deliver and synchronously await the reply
  /// (bounded by virtual-time `timeout`). Error replies are surfaced as
  /// Result errors.
  Result<ProtocolMessage> deliver_request(const net::Address& to, const ProtocolMessage& msg,
                                          TimeMs timeout);

 private:
  Bytes on_request(const net::Address& from, BytesView raw);
  void on_notify(const net::Address& from, BytesView raw);

  std::shared_ptr<EvidenceService> evidence_;
  // Read on delivery strands while late handlers register (e.g. a TTP
  // attached mid-scenario), hence reader/writer locked.
  mutable util::SharedMutex handlers_mu_{util::LockRank::kCoordinator,
                                          "core.coordinator.handlers"};
  std::map<std::string, std::shared_ptr<ProtocolHandler>> handlers_
      NONREP_GUARDED_BY(handlers_mu_);
  // Declared last => destroyed first: its teardown waits out in-flight
  // delivery upcalls while the handler registry above is still alive.
  net::RpcEndpoint rpc_;
};

}  // namespace nonrep::core
