// Deterministic simulated network, with an optional concurrent runtime.
//
// Substitutes for the paper's Java-RMI transport. Trusted-interceptor
// assumption 2 only demands "eventual message delivery (a bounded number
// of temporary network and computer related failures)"; this simulator
// provides exactly that with controllable per-link latency, loss,
// duplication and partitions, driven by a virtual clock so every protocol
// experiment is reproducible.
//
// Two dispatch modes:
//
//  * Classic (default): single-threaded and fully deterministic — step()
//    invokes endpoint handlers and timers inline in virtual-time order.
//  * Concurrent (live): attach a util::ThreadPool with set_executor() and
//    message handlers run on worker threads, the RMI analogue of
//    thread-per-call. Each endpoint owns a strand: a FIFO of its pending
//    deliveries and strand timers, drained by at most one worker at a time.
//    So a party never observes reordered or overlapping upcalls, and a
//    handler's state needs no lock against the party's other upcalls. A
//    message takes one hop: send() appends it to the destination strand
//    (after the link's drop/duplicate/partition draw), so per-link order
//    is send order and link latency is not simulated. Virtual time orders
//    only timers: one pump thread (run_live(), or any run* call) pops the
//    timer queue, and advances the clock only while no delivery or upcall
//    is in flight, so no timeout fires under load. Same-worker hand-off: a
//    handler's first send to an idle party, while the handler's own strand
//    has nothing queued, wakes no other worker; the new drain waits in the
//    worker's one-entry slot and runs on that thread once the handler's
//    strand is empty. It goes to the pool instead as soon as that strand
//    gains work, and a second such send is a pool task from the start.
//
// Upcalls never wait on the network. A handler that needs another party's
// answer sends its request and continues from a callback that runs later
// on its own strand (RpcEndpoint::call_async). Blocking waits belong to
// application threads outside any upcall; in_upcall() lets the RPC layer
// refuse the rest. A handler that blocked after a send would also hold
// back that delivery, which may be waiting in its worker's slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>

#include "util/lock_discipline.hpp"
#include "crypto/drbg.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"

namespace nonrep::util {
class ThreadPool;
}

namespace nonrep::net {

/// Endpoint address ("org-a", "ttp:notary", ...).
using Address = std::string;

struct LinkConfig {
  TimeMs latency = 5;       // one-way delivery delay
  double drop = 0.0;        // probability a send is lost
  double duplicate = 0.0;   // probability a send is delivered twice
  bool partitioned = false; // hard cut: nothing delivered
};

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t bytes_sent = 0;
};

class SimNetwork {
 public:
  using Handler = std::function<void(const Address& from, BytesView payload)>;

  SimNetwork(std::shared_ptr<SimClock> clock, std::uint64_t seed);
  ~SimNetwork();

  std::shared_ptr<SimClock> clock() const noexcept { return clock_; }

  void register_endpoint(const Address& addr, Handler handler);
  void unregister_endpoint(const Address& addr);

  /// Directional link configuration; unspecified links use the default.
  void set_link(const Address& from, const Address& to, LinkConfig config);
  /// Symmetric partition toggle between two endpoints.
  void set_partitioned(const Address& a, const Address& b, bool partitioned);
  void set_default_link(LinkConfig config);

  /// Attach a worker pool: deliveries now run on pool threads, ordered per
  /// destination. Pass nullptr to return to classic inline dispatch. Only
  /// call while the network is idle (setup/teardown). The pool must outlive
  /// the network or be detached before it is destroyed.
  void set_executor(std::shared_ptr<util::ThreadPool> pool);
  bool concurrent() const;

  /// Queue a payload for delivery (subject to the link's fault model).
  void send(const Address& from, const Address& to, Bytes payload);

  /// Schedule a timer callback after `delay` of virtual time.
  void schedule(TimeMs delay, std::function<void()> fn);

  /// Cancellation flag for a timer: set `*handle = false` to cancel. A
  /// cancelled timer neither fires nor advances the virtual clock.
  /// Atomic: cancellers run on party threads while the pump inspects it.
  /// With `strand` set, the callback is an upcall of that endpoint: in
  /// concurrent mode it queues on the endpoint's strand behind earlier
  /// deliveries instead of running on the pump.
  using TimerHandle = std::shared_ptr<std::atomic<bool>>;
  TimerHandle schedule_cancelable(TimeMs delay, std::function<void()> fn,
                                  const Address& strand = {});

  /// Deliver the next pending event (advancing the clock). False if idle.
  /// step(), run() and run_until() do nothing inside one of this network's
  /// upcalls: the network is not pumped from within itself.
  bool step();
  /// Run until idle or `max_events`; returns events processed. In
  /// concurrent mode "idle" additionally means no in-flight worker strand.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));
  /// Run until `predicate()` is true, idle, or `max_events` reached.
  bool run_until(const std::function<bool()>& predicate,
                 std::size_t max_events = static_cast<std::size_t>(-1));

  /// Concurrent-mode pump loop: process events, sleeping while there is
  /// nothing to do, until stop_live() is called. Exactly one thread runs
  /// it; that thread is the virtual clock's owner.
  void run_live();
  void stop_live();

  /// Block until the event queue is empty and every strand has drained.
  /// Call from a non-pump thread while run_live() is pumping (or after all
  /// work completed) — e.g. after the last client returned, to let tail
  /// traffic (final one-way steps, ACKs) land before shutdown.
  void drain();

  /// True while the calling thread runs one of this network's upcalls (a
  /// delivery handler or a timer callback). Nothing may wait on the
  /// network there: the awaited event could only be delivered by the
  /// frame that is waiting.
  bool in_upcall() const;

  /// In-flight accounting for work the network cannot see: an application
  /// thread woken by an RPC response. While the count is non-zero the pump
  /// will not advance virtual time past the present (it would fire
  /// timeouts under work that is still running). The waker begins on the
  /// woken thread's behalf before its own upcall retires; the woken thread
  /// ends it.
  void begin_external_work();
  void end_external_work();

  /// Block until no timer callback is executing on the pump. Endpoint
  /// teardown calls this after cancelling its timers: a callback that
  /// slipped past the pump's cancellation recheck still captures the
  /// endpoint, so destruction must wait it out. No-op from within a timer
  /// callback itself. Timer callbacks never block, so the wait is short.
  void quiesce_timers();

  bool idle() const;
  NetworkStats stats() const;
  void reset_stats();

 private:
  // Every field has an initializer, so a designated initializer names
  // only the fields it sets.
  struct Event {
    TimeMs at = 0;
    std::uint64_t seq = 0;  // FIFO tie-break for determinism
    Address from{};
    Address to{};                     // destination; for timers, the strand (or empty)
    Bytes payload{};
    std::function<void()> timer{};    // set for timer events
    TimerHandle timer_active{};       // optional cancellation flag
    std::uint64_t enqueue_ns = 0;     // wall time at send (obs delivery wait)
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// Per-destination ordered delivery queue (concurrent mode only). At
  /// most one drain task, or one worker's hand-off slot, owns the strand
  /// (`active`); either way it is counted in `inflight_`. `executing` is set
  /// while that task runs an upcall: unregister_endpoint waits on it so
  /// endpoint teardown cannot free an object a worker still holds, and
  /// counts itself in `unregistering` to be woken when it clears.
  struct Strand {
    std::deque<Event> q;
    bool active = false;
    bool executing = false;
    int unregistering = 0;
  };

  LinkConfig link_for_locked(const Address& from, const Address& to) const
      NONREP_REQUIRES(mu_);
  /// Queue a timer (or a classic-mode delivery) at now + `delay`; true if
  /// it became the earliest event, the one change a waiting pump needs.
  bool push_event_locked(TimeMs delay, Event e) NONREP_REQUIRES(mu_);
  bool enqueue_delivery_locked(const Address& from, const Address& to, Bytes payload,
                               TimeMs delay) NONREP_REQUIRES(mu_);
  /// Append to `e.to`'s strand; if it is idle, start its drain as a pool
  /// task or in the calling worker's hand-off slot.
  void strand_push_locked(Event e) NONREP_REQUIRES(mu_);
  /// Run `to`'s strand, then any strand its handlers left in the slot.
  void drain_strand(Address to);
  bool pump_one();  // step() body; shared by all run loops

  std::shared_ptr<SimClock> clock_;

  mutable util::Mutex mu_{util::LockRank::kNetwork, "net.network"};
  // Notified only on the transitions its waiters need: inflight_ reaching
  // 0, a new earliest event, a strand's `executing` clearing under an
  // unregister, the pump's timer callback returning, and stop_live().
  util::CondVar cv_;
  crypto::Drbg rng_ NONREP_GUARDED_BY(mu_);
  std::map<Address, Handler> endpoints_ NONREP_GUARDED_BY(mu_);
  std::map<std::pair<Address, Address>, LinkConfig> links_ NONREP_GUARDED_BY(mu_);
  LinkConfig default_link_ NONREP_GUARDED_BY(mu_){};
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_ NONREP_GUARDED_BY(mu_);
  std::uint64_t next_seq_ NONREP_GUARDED_BY(mu_) = 0;
  NetworkStats stats_ NONREP_GUARDED_BY(mu_){};

  std::shared_ptr<util::ThreadPool> pool_;
  std::map<Address, Strand> strands_ NONREP_GUARDED_BY(mu_);
  // Active drain tasks, pump upcalls and external work.
  std::size_t inflight_ NONREP_GUARDED_BY(mu_) = 0;
  std::size_t timer_callbacks_ NONREP_GUARDED_BY(mu_) = 0;  // timer closures currently executing
  bool stop_live_ NONREP_GUARDED_BY(mu_) = false;
};

}  // namespace nonrep::net
