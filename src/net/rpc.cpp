#include "net/rpc.hpp"

#include <chrono>
#include <memory>
#include <optional>

#include "util/serialize.hpp"

namespace nonrep::net {

namespace {
constexpr std::uint8_t kRequest = 1;
constexpr std::uint8_t kResponse = 2;
constexpr std::uint8_t kOneWay = 3;

// Real-time safety net for blocking waits: virtual-time timeouts need the
// pump alive to fire, so a wedged pump must not hang callers forever.
constexpr auto kRealTimeCap = std::chrono::seconds(30);

// The request this thread's handler is serving, so defer_reply() can
// claim it.
struct Serving {
  RpcEndpoint* endpoint;
  const Address* from;
  std::uint64_t rpc_id;
  bool deferred = false;
};
thread_local Serving* tls_serving = nullptr;

Error timeout_error(const Address& to, TimeMs timeout) {
  return Error::make("rpc.timeout",
                     "no response from " + to + " within " + std::to_string(timeout) + "ms");
}
}  // namespace

RpcEndpoint::RpcEndpoint(SimNetwork& network, Address address, ReliableConfig config)
    : network_(network), endpoint_(network, std::move(address), config) {
  endpoint_.set_handler(
      [this](const Address& from, BytesView raw) { on_message(from, raw); });
}

RpcEndpoint::~RpcEndpoint() {
  // Calls still outstanding never complete: cancel their timeouts, whose
  // closures capture `this`, and drop the callbacks outside the lock.
  std::unordered_map<std::uint64_t, Outstanding> dropped;
  {
    util::MutexLock lk(mu_);
    for (auto& [id, call] : outstanding_) {
      (void)id;
      if (call.timeout) *call.timeout = false;
    }
    dropped.swap(outstanding_);
  }
}

void RpcEndpoint::set_request_handler(RequestHandler handler) {
  util::MutexLock lk(mu_);
  request_handler_ = std::move(handler);
}

void RpcEndpoint::set_notify_handler(NotifyHandler handler) {
  util::MutexLock lk(mu_);
  notify_handler_ = std::move(handler);
}

void RpcEndpoint::notify(const Address& to, Bytes payload) {
  BinaryWriter w;
  w.u8(kOneWay);
  w.u64(0);
  w.bytes(payload);
  endpoint_.send(to, std::move(w).take());
}

void RpcEndpoint::call_async(const Address& to, Bytes request, TimeMs timeout, Done done) {
  std::uint64_t rpc_id;
  {
    util::MutexLock lk(mu_);
    rpc_id = next_rpc_id_++;
    outstanding_.emplace(rpc_id, Outstanding{std::move(done), nullptr});
  }
  BinaryWriter w;
  w.u8(kRequest);
  w.u64(rpc_id);
  w.bytes(request);
  endpoint_.send(to, std::move(w).take());

  // The timeout is a strand timer, so it and the response reach `done`
  // through the same serialised upcalls. Armed after the send: armed
  // first, it could be the only pending event, and an idle pump would
  // jump virtual time straight to it.
  auto timer = network_.schedule_cancelable(
      timeout, [this, rpc_id, to, timeout] { complete(rpc_id, timeout_error(to, timeout)); },
      address());
  util::MutexLock lk(mu_);
  if (auto it = outstanding_.find(rpc_id); it != outstanding_.end()) {
    it->second.timeout = std::move(timer);
  } else {
    *timer = false;  // answered between send and arm
  }
}

void RpcEndpoint::complete(std::uint64_t rpc_id, Result<Bytes> outcome) {
  Done done;
  {
    util::MutexLock lk(mu_);
    auto it = outstanding_.find(rpc_id);
    if (it == outstanding_.end()) return;  // already answered or timed out
    // A satisfied call must not drag the clock forward.
    if (it->second.timeout) *it->second.timeout = false;
    done = std::move(it->second.done);
    outstanding_.erase(it);
  }
  done(std::move(outcome));
}

Result<Bytes> RpcEndpoint::call(const Address& to, Bytes request, TimeMs timeout) {
  if (network_.in_upcall()) {
    return Error::make("rpc.blocking_in_upcall",
                       "call to " + to + " from inside a network upcall; use call_async");
  }
  const bool concurrent = network_.concurrent();
  struct Waiter {
    std::optional<Result<Bytes>> outcome;
    bool abandoned = false;  // the caller gave up at the real-time cap
  };
  // Shared: `done` may run after an abandoned caller has returned.
  auto waiter = std::make_shared<Waiter>();
  call_async(to, std::move(request), timeout, [this, waiter, concurrent](Result<Bytes> outcome) {
    {
      util::MutexLock lk(mu_);
      if (waiter->abandoned) return;
      waiter->outcome = std::move(outcome);
      // Hold virtual time for the woken caller (it ends the hold): the
      // pump must not see a quiet instant before the caller continues.
      if (concurrent) network_.begin_external_work();
    }
    response_cv_.notify_all();
  });

  if (!concurrent) {
    network_.run_until([&] {
      util::MutexLock lk(mu_);
      return waiter->outcome.has_value();
    });
  }
  util::UniqueLock lk(mu_);
  if (concurrent) {
    response_cv_.wait_for(lk, kRealTimeCap, [&] { return waiter->outcome.has_value(); });
  }
  if (!waiter->outcome) {
    waiter->abandoned = true;
    return timeout_error(to, timeout);
  }
  Result<Bytes> outcome = std::move(*waiter->outcome);
  lk.unlock();
  if (concurrent) network_.end_external_work();
  return outcome;
}

RpcEndpoint::Reply RpcEndpoint::defer_reply() {
  if (tls_serving == nullptr || tls_serving->endpoint != this) return [](Bytes) {};
  tls_serving->deferred = true;
  return [this, to = *tls_serving->from, rpc_id = tls_serving->rpc_id](Bytes response) {
    respond(to, rpc_id, std::move(response));
  };
}

bool RpcEndpoint::reply_deferred() const {
  return tls_serving != nullptr && tls_serving->endpoint == this && tls_serving->deferred;
}

void RpcEndpoint::respond(const Address& to, std::uint64_t rpc_id, Bytes response) {
  BinaryWriter w;
  w.u8(kResponse);
  w.u64(rpc_id);
  w.bytes(response);
  endpoint_.send(to, std::move(w).take());
}

void RpcEndpoint::on_message(const Address& from, BytesView raw) {
  BinaryReader r(raw);
  auto kind = r.u8();
  if (!kind) return;
  auto rpc_id = r.u64();
  if (!rpc_id) return;
  auto payload = r.bytes();
  if (!payload) return;

  switch (kind.value()) {
    case kRequest: {
      RequestHandler handler;
      {
        util::MutexLock lk(mu_);
        handler = request_handler_;
      }
      if (!handler) return;
      Serving serving{this, &from, rpc_id.value()};
      tls_serving = &serving;
      Bytes response = handler(from, payload.value());
      tls_serving = nullptr;
      if (!serving.deferred) respond(from, rpc_id.value(), std::move(response));
      break;
    }
    case kResponse:
      complete(rpc_id.value(), std::move(payload).take());
      break;
    case kOneWay: {
      NotifyHandler handler;
      {
        util::MutexLock lk(mu_);
        handler = notify_handler_;
      }
      if (handler) handler(from, payload.value());
      break;
    }
    default:
      break;
  }
}

}  // namespace nonrep::net
