// Request/response and one-way messaging over ReliableEndpoint.
//
// Provides the transport semantics the paper's B2BCoordinator interface
// needs: `deliver` (one-way) and `deliverRequest` (send, then wait
// synchronously for the response, §4.1).
//
// Waiting strategy depends on the runtime mode:
//  * Classic (single-threaded) — call() pumps the simulated network until
//    the response or a virtual-time timeout arrives; nested calls (e.g. a
//    server contacting a TTP while serving a request) re-enter the pump
//    safely.
//  * Concurrent — a call() from any thread other than the pump blocks on a
//    condition variable while the pump keeps delivering. If the caller is
//    a delivery-strand handler it first yields its strand so the awaited
//    response (which arrives on the same party's strand) can be served by
//    another worker.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "util/lock_discipline.hpp"
#include "net/channel.hpp"
#include "util/result.hpp"

namespace nonrep::net {

class RpcEndpoint {
 public:
  /// Serves a request and returns the response payload.
  using RequestHandler = std::function<Bytes(const Address& from, BytesView request)>;
  /// Receives one-way notifications.
  using NotifyHandler = std::function<void(const Address& from, BytesView payload)>;

  RpcEndpoint(SimNetwork& network, Address address, ReliableConfig config = {});

  const Address& address() const noexcept { return endpoint_.address(); }
  SimNetwork& network() noexcept { return network_; }

  void set_request_handler(RequestHandler handler);
  void set_notify_handler(NotifyHandler handler);

  /// One-way, reliable (paper: `deliver`).
  void notify(const Address& to, Bytes payload);

  /// Request/response, reliable, bounded by virtual-time `timeout`
  /// (paper: `deliverRequest`).
  Result<Bytes> call(const Address& to, Bytes request, TimeMs timeout);

  std::uint64_t retransmissions() const noexcept { return endpoint_.retransmissions(); }
  std::size_t per_message_entries() const { return endpoint_.per_message_entries(); }

 private:
  void on_message(const Address& from, BytesView raw);
  Result<Bytes> take_outcome(std::uint64_t rpc_id, const Address& to, TimeMs timeout);
  /// Caller holds mu_. Marks the parked caller resumed and re-registers it
  /// as in-flight with the network (exactly once per call).
  void resume_parked_locked(std::uint64_t rpc_id) NONREP_REQUIRES(mu_);

  SimNetwork& network_;

  /// An in-flight call. `parked` marks a blocking-mode caller waiting on
  /// the condition variable; whoever wakes it (response or timeout) sets
  /// `resumed` and re-registers the caller as in-flight with the network
  /// *before* the waker's own work retires, so the pump never observes a
  /// quiet instant while the caller is about to continue the protocol.
  struct Outstanding {
    std::optional<Bytes> response;
    bool parked = false;
    bool resumed = false;
  };

  mutable util::Mutex mu_{util::LockRank::kRpc, "net.rpc"};
  util::CondVar response_cv_;
  RequestHandler request_handler_ NONREP_GUARDED_BY(mu_);
  NotifyHandler notify_handler_ NONREP_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Outstanding> outstanding_ NONREP_GUARDED_BY(mu_);
  std::uint64_t next_rpc_id_ NONREP_GUARDED_BY(mu_) = 1;

  // Declared last => destroyed first: ~ReliableEndpoint's unregister wait
  // holds teardown until in-flight handler frames for this address return,
  // while mu_/response_cv_/outstanding_ above are still alive for them.
  ReliableEndpoint endpoint_;
};

}  // namespace nonrep::net
