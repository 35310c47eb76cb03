#include "net/network.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::net {

namespace {

// Handles resolved once; recording is lock-free so it is safe under mu_.
struct NetMetrics {
  obs::Gauge& queue_depth = obs::Registry::global().gauge("net.queue_depth");
  obs::Histogram& delivery_wait_ns =
      obs::Registry::global().histogram("net.delivery_wait_ns");
  obs::Counter& delivered = obs::Registry::global().counter("net.delivered");
  obs::Counter& dropped = obs::Registry::global().counter("net.dropped");
  obs::Counter& handoffs = obs::Registry::global().counter("net.handoffs");
};

NetMetrics& metrics() {
  static NetMetrics m;
  return m;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The upcall this thread is running, if any. `strand` names the endpoint
// whose strand a worker drains, so an endpoint tearing itself down from
// its own handler does not wait for itself; `timer` marks a timer closure
// run by the pump, which quiesce_timers() must not wait for either.
// `handoff` is the worker's one-entry slot, set while it runs a handler.
struct Upcall {
  const SimNetwork* net = nullptr;
  const Address* strand = nullptr;
  bool timer = false;
  Address* handoff = nullptr;
};
thread_local Upcall tls_upcall;
}  // namespace

SimNetwork::SimNetwork(std::shared_ptr<SimClock> clock, std::uint64_t seed)
    : clock_(std::move(clock)), rng_([seed] {
        BinaryWriter w;
        w.u64(seed);
        return std::move(w).take();
      }()) {}

SimNetwork::~SimNetwork() {
  // Workers hold `this` while draining strands; wait them out.
  util::UniqueLock lk(mu_);
  cv_.wait(lk, [&] { return inflight_ == 0; });  // woken by inflight_ reaching 0
}

void SimNetwork::register_endpoint(const Address& addr, Handler handler) {
  util::MutexLock lk(mu_);
  endpoints_[addr] = std::move(handler);
}

void SimNetwork::unregister_endpoint(const Address& addr) {
  util::UniqueLock lk(mu_);
  endpoints_.erase(addr);
  // Concurrent mode: a worker may have copied this endpoint's handler out
  // before the erase. Wait for the upcall in flight on the address's strand
  // to return so the caller can safely destroy the endpoint — unless it is
  // our own frame (an endpoint tearing itself down from its own handler).
  auto it = strands_.find(addr);
  if (it == strands_.end() ||
      (tls_upcall.net == this && tls_upcall.strand != nullptr && *tls_upcall.strand == addr)) {
    return;
  }
  Strand& s = it->second;  // strands are never erased
  ++s.unregistering;
  cv_.wait(lk, [&] { return !s.executing; });  // woken by drain_strand clearing `executing`
  --s.unregistering;
}

void SimNetwork::set_link(const Address& from, const Address& to, LinkConfig config) {
  util::MutexLock lk(mu_);
  links_[{from, to}] = config;
}

void SimNetwork::set_partitioned(const Address& a, const Address& b, bool partitioned) {
  util::MutexLock lk(mu_);
  LinkConfig ab = link_for_locked(a, b);
  ab.partitioned = partitioned;
  links_[{a, b}] = ab;
  LinkConfig ba = link_for_locked(b, a);
  ba.partitioned = partitioned;
  links_[{b, a}] = ba;
}

void SimNetwork::set_default_link(LinkConfig config) {
  util::MutexLock lk(mu_);
  default_link_ = config;
}

void SimNetwork::set_executor(std::shared_ptr<util::ThreadPool> pool) {
  util::MutexLock lk(mu_);
  pool_ = std::move(pool);
}

bool SimNetwork::concurrent() const {
  util::MutexLock lk(mu_);
  return pool_ != nullptr;
}

LinkConfig SimNetwork::link_for_locked(const Address& from, const Address& to) const {
  auto it = links_.find({from, to});
  return it != links_.end() ? it->second : default_link_;
}

bool SimNetwork::push_event_locked(TimeMs delay, Event e) {
  e.at = clock_->now() + delay;
  e.seq = next_seq_++;
  const std::uint64_t seq = e.seq;
  events_.push(std::move(e));
  metrics().queue_depth.set(static_cast<std::int64_t>(events_.size()));
  return events_.top().seq == seq;
}

bool SimNetwork::enqueue_delivery_locked(const Address& from, const Address& to,
                                         Bytes payload, TimeMs delay) {
  Event e{.from = from, .to = to, .payload = std::move(payload), .enqueue_ns = steady_ns()};
  if (!pool_) return push_event_locked(delay, std::move(e));
  // Live mode: straight onto the destination strand, whose FIFO is the
  // per-link order. Messages do not move the virtual clock.
  strand_push_locked(std::move(e));
  return false;
}

void SimNetwork::send(const Address& from, const Address& to, Bytes payload) {
  bool wake = false;
  {
    util::MutexLock lk(mu_);
    ++stats_.sent;
    stats_.bytes_sent += payload.size();
    const LinkConfig link = link_for_locked(from, to);
    if (link.partitioned || rng_.chance(link.drop)) {
      ++stats_.dropped;
      metrics().dropped.add();
      return;
    }
    const bool dup = rng_.chance(link.duplicate);
    wake = enqueue_delivery_locked(from, to, dup ? payload : std::move(payload), link.latency);
    if (dup) {
      ++stats_.duplicated;
      wake |= enqueue_delivery_locked(from, to, std::move(payload), link.latency + 1);
    }
  }
  if (wake) cv_.notify_all();
}

void SimNetwork::schedule(TimeMs delay, std::function<void()> fn) {
  schedule_cancelable(delay, std::move(fn));
}

SimNetwork::TimerHandle SimNetwork::schedule_cancelable(TimeMs delay, std::function<void()> fn,
                                                        const Address& strand) {
  auto handle = std::make_shared<std::atomic<bool>>(true);
  bool wake;
  {
    util::MutexLock lk(mu_);
    wake = push_event_locked(delay, Event{.to = strand, .timer = std::move(fn),
                                          .timer_active = handle});
  }
  if (wake) cv_.notify_all();
  return handle;
}

void SimNetwork::strand_push_locked(Event e) {
  Strand& s = strands_[e.to];
  if (!s.active) {
    s.active = true;
    ++inflight_;
    // A handler's first send to an idle party, while its own strand has
    // nothing queued, waits in the worker's slot and runs on that worker
    // once the handler returns; any other new drain is a pool task.
    const Upcall& u = tls_upcall;
    if (u.net == this && u.handoff != nullptr && u.handoff->empty() &&
        strands_[*u.strand].q.empty()) {
      *u.handoff = e.to;
    } else {
      pool_->submit([this, to = e.to] { drain_strand(to); });
    }
  }
  s.q.push_back(std::move(e));
}

void SimNetwork::drain_strand(Address to) {
  Address next;  // the hand-off slot: drained here once `to` is empty
  bool handed_off = false;  // `to` came from the slot
  tls_upcall = Upcall{this, &to, false};
  util::UniqueLock lk(mu_);
  for (;;) {
    Strand& s = strands_[to];  // map nodes are stable; strands are never erased
    while (!s.q.empty()) {
      Event e = std::move(s.q.front());
      s.q.pop_front();
      Handler handler;
      if (!e.timer) {
        if (auto it = endpoints_.find(to); it != endpoints_.end()) {
          ++stats_.delivered;
          metrics().delivered.add();
          if (handed_off) metrics().handoffs.add();
          if (e.enqueue_ns != 0) {
            metrics().delivery_wait_ns.record(steady_ns() - e.enqueue_ns);
          }
          handler = it->second;
        }
      }
      s.executing = true;
      lk.unlock();
      NONREP_ASSERT_NO_LOCKS_HELD("SimNetwork::drain_strand upcall");
      if (e.timer) {
        // Re-check cancellation at the last moment, as the pump does.
        if (!e.timer_active || *e.timer_active) e.timer();
      } else if (handler) {
        tls_upcall.handoff = &next;
        handler(e.from, e.payload);
        tls_upcall.handoff = nullptr;
      }
      lk.lock();
      s.executing = false;
      if (s.unregistering > 0) cv_.notify_all();
      if (!next.empty() && !s.q.empty()) {
        // `to` has more work: the slot must not wait behind it.
        pool_->submit([this, b = std::move(next)] { drain_strand(b); });
        next.clear();
      }
    }
    s.active = false;
    if (next.empty()) break;
    --inflight_;  // `next` is still counted, so this never reaches 0
    to = std::move(next);
    next.clear();
    handed_off = true;
  }
  if (--inflight_ == 0) cv_.notify_all();  // under the lock: see pump_one
  lk.unlock();
  tls_upcall = Upcall{};
}

bool SimNetwork::in_upcall() const { return tls_upcall.net == this; }

void SimNetwork::begin_external_work() {
  util::MutexLock lk(mu_);
  ++inflight_;
}

void SimNetwork::end_external_work() {
  util::MutexLock lk(mu_);
  if (--inflight_ == 0) cv_.notify_all();  // under the lock: see pump_one
}

void SimNetwork::quiesce_timers() {
  if (tls_upcall.net == this && tls_upcall.timer) return;  // our own frame would never drain
  util::UniqueLock lk(mu_);
  cv_.wait(lk, [&] { return timer_callbacks_ == 0; });  // woken by the pump's timer returning
}

bool SimNetwork::pump_one() {
  // The pump dispatches arbitrary handler/timer upcalls; entering it with a
  // subsystem lock held is a latent deadlock (the upcall may block on that
  // very lock from another thread).
  NONREP_ASSERT_NO_LOCKS_HELD("SimNetwork::pump_one");
  Event e;
  Handler handler;
  bool deliver_inline = false;
  {
    util::UniqueLock lk(mu_);
    for (;;) {
      // Discard cancelled timers without advancing the clock.
      while (!events_.empty() && events_.top().timer_active &&
             !*events_.top().timer_active) {
        events_.pop();
      }
      if (events_.empty()) {
        if (inflight_ == 0) cv_.notify_all();  // drain()/dtor waiters
        return false;
      }
      // Concurrent mode: never jump virtual time while other threads'
      // work is in flight — they are about to inject earlier events, and
      // advancing now would fire timeouts under live traffic. Same-time
      // events are always safe to dispatch.
      if (pool_ && inflight_ > 0 && events_.top().at > clock_->now()) {
        // Woken by inflight_ reaching 0, a new earliest timer or stop_live().
        cv_.wait(lk, [&] {
          return stop_live_ || events_.empty() || inflight_ == 0 ||
                 events_.top().at <= clock_->now();
        });
        if (stop_live_) return false;
        continue;
      }
      break;
    }
    // The heap orders by `at` and `seq` alone, which a move leaves intact.
    e = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    metrics().queue_depth.set(static_cast<std::int64_t>(events_.size()));
    if (e.at > clock_->now()) clock_->set(e.at);
    if (pool_ && !e.to.empty()) {
      strand_push_locked(std::move(e));
      return true;
    }
    if (!e.timer) {
      auto it = endpoints_.find(e.to);
      if (it == endpoints_.end()) return true;
      ++stats_.delivered;
      metrics().delivered.add();
      if (e.enqueue_ns != 0) {
        metrics().delivery_wait_ns.record(steady_ns() - e.enqueue_ns);
      }
      handler = it->second;
      deliver_inline = true;
    }
    // Count the in-progress callback as in-flight so drain() can't observe
    // a spuriously quiet instant while the callback is about to send.
    ++inflight_;
    if (e.timer) ++timer_callbacks_;
  }
  tls_upcall = Upcall{this, nullptr, static_cast<bool>(e.timer)};
  if (e.timer) {
    // Re-check cancellation at the last moment: the owner may have
    // cancelled (e.g. an endpoint tearing down) between pop and invoke.
    if (!e.timer_active || *e.timer_active) e.timer();
  } else if (deliver_inline) {
    handler(e.from, e.payload);
  }
  tls_upcall = Upcall{};
  {
    util::MutexLock lk(mu_);
    const bool timer_done = e.timer && --timer_callbacks_ == 0;
    // Notify under the lock: a waiter (drain()/quiesce_timers()/the
    // destructor) must not be able to observe the decrement and finish
    // destruction before this notify executes.
    if (--inflight_ == 0 || timer_done) cv_.notify_all();
  }
  return true;
}

bool SimNetwork::step() { return !in_upcall() && pump_one(); }

std::size_t SimNetwork::run(std::size_t max_events) {
  if (in_upcall()) return 0;
  std::size_t n = 0;
  while (n < max_events) {
    if (pump_one()) {
      ++n;
      continue;
    }
    util::UniqueLock lk(mu_);
    if (inflight_ == 0) {
      if (events_.empty()) break;
      continue;  // a worker raced new events in
    }
    // Woken by inflight_ reaching 0 or a new earliest event.
    cv_.wait(lk, [&] { return !events_.empty() || inflight_ == 0; });
    if (events_.empty() && inflight_ == 0) break;
  }
  return n;
}

bool SimNetwork::run_until(const std::function<bool()>& predicate, std::size_t max_events) {
  if (in_upcall()) return predicate();
  std::size_t n = 0;
  while (!predicate()) {
    if (n >= max_events) return predicate();
    if (pump_one()) {
      ++n;
      continue;
    }
    util::UniqueLock lk(mu_);
    if (inflight_ == 0) {
      if (events_.empty()) return predicate();
      continue;
    }
    cv_.wait(lk, [&] { return !events_.empty() || inflight_ == 0; });  // as in run()
  }
  return true;
}

void SimNetwork::run_live() {
  for (;;) {
    {
      util::MutexLock lk(mu_);
      if (stop_live_) {
        stop_live_ = false;
        return;
      }
    }
    if (pump_one()) continue;
    util::UniqueLock lk(mu_);
    if (stop_live_) {
      stop_live_ = false;
      return;
    }
    cv_.wait(lk, [&] { return stop_live_ || !events_.empty(); });  // first timer or stop_live()
  }
}

void SimNetwork::stop_live() {
  {
    util::MutexLock lk(mu_);
    stop_live_ = true;
  }
  cv_.notify_all();
}

void SimNetwork::drain() {
  util::UniqueLock lk(mu_);
  // Woken by inflight_ reaching 0 or the pump emptying the queue.
  cv_.wait(lk, [&] { return events_.empty() && inflight_ == 0; });
}

bool SimNetwork::idle() const {
  util::MutexLock lk(mu_);
  return events_.empty() && inflight_ == 0;
}

NetworkStats SimNetwork::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

void SimNetwork::reset_stats() {
  util::MutexLock lk(mu_);
  stats_ = NetworkStats{};
}

}  // namespace nonrep::net
