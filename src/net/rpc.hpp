// Request/response and one-way messaging over ReliableEndpoint.
//
// Provides the transport semantics the paper's B2BCoordinator interface
// needs: `deliver` (one-way) and `deliverRequest` (send, then wait
// synchronously for the response, §4.1).
//
// Every call completes one way: call_async() runs its callback exactly
// once, on the calling endpoint's strand, with the response or the
// timeout. The timeout is a strand timer, so it is serialised with the
// endpoint's deliveries and never runs on the pump. The blocking call()
// is call_async() plus a wait, for application threads only:
//  * Classic (single-threaded) — call() pumps the simulated network until
//    the callback has run.
//  * Concurrent — call() blocks on a condition variable while the pump
//    thread keeps delivering.
// A call() made from inside an upcall (a request or notify handler, a
// timer) fails with "rpc.blocking_in_upcall": the response could only be
// delivered by the strand the caller occupies. A request handler that
// needs another party's answer calls call_async(), takes defer_reply(),
// and answers from the callback.
#pragma once

#include <functional>
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
  /// Completion of call_async: the response payload, or why there is none.
  using Done = std::function<void(Result<Bytes>)>;

  /// Sends the response to one request, for a handler that called
  /// defer_reply(). The caller takes the first response it receives.
  using Reply = std::function<void(Bytes response)>;

  RpcEndpoint(SimNetwork& network, Address address, ReliableConfig config = {});
  ~RpcEndpoint();

  const Address& address() const noexcept { return endpoint_.address(); }
  SimNetwork& network() noexcept { return network_; }

  void set_request_handler(RequestHandler handler);
  void set_notify_handler(NotifyHandler handler);

  /// One-way, reliable (paper: `deliver`).
  void notify(const Address& to, Bytes payload);

  /// Request/response, reliable, bounded by virtual-time `timeout`. `done`
  /// runs exactly once on this endpoint's strand, unless the endpoint is
  /// destroyed first.
  void call_async(const Address& to, Bytes request, TimeMs timeout, Done done);

  /// Blocking call_async (paper: `deliverRequest`), for application
  /// threads. Fails with "rpc.blocking_in_upcall" inside an upcall.
  Result<Bytes> call(const Address& to, Bytes request, TimeMs timeout);

  /// Called by the request handler while it serves a request: the
  /// handler's return value is then discarded and the request is answered
  /// by the returned Reply instead.
  Reply defer_reply();
  /// True inside the request handler once it has called defer_reply().
  bool reply_deferred() const;

  std::uint64_t retransmissions() const noexcept { return endpoint_.retransmissions(); }
  std::size_t per_message_entries() const { return endpoint_.per_message_entries(); }

 private:
  void on_message(const Address& from, BytesView raw);
  void respond(const Address& to, std::uint64_t rpc_id, Bytes response);
  /// Runs the call's `done` unless the response or the timeout already did.
  void complete(std::uint64_t rpc_id, Result<Bytes> outcome);

  SimNetwork& network_;

  struct Outstanding {
    Done done;
    SimNetwork::TimerHandle timeout;
  };

  mutable util::Mutex mu_{util::LockRank::kRpc, "net.rpc"};
  util::CondVar response_cv_;
  RequestHandler request_handler_ NONREP_GUARDED_BY(mu_);
  NotifyHandler notify_handler_ NONREP_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Outstanding> outstanding_ NONREP_GUARDED_BY(mu_);
  std::uint64_t next_rpc_id_ NONREP_GUARDED_BY(mu_) = 1;

  // Declared last => destroyed first: ~ReliableEndpoint's unregister wait
  // holds teardown until the upcall in flight for this address returns,
  // while mu_/response_cv_/outstanding_ above are still alive for it.
  ReliableEndpoint endpoint_;
};

}  // namespace nonrep::net
