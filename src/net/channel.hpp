// Reliable endpoint: acknowledgement + bounded retransmission + dedup.
//
// Realises trusted-interceptor assumption 2: under a bounded number of
// temporary failures every message is eventually delivered exactly once to
// the application handler. Retransmission counts are exported for the
// communication-overhead experiments (§6).
//
// Dedup state is bounded per link, not per message. A sender numbers its
// messages 1, 2, 3, ... separately for each destination. For each sender
// the receiver keeps a mark below which every id has been delivered, plus
// the delivered ids above it; a message whose id is at or below the mark,
// or in that set, is a duplicate. Once retransmission fills a gap the mark
// advances past it and those ids are dropped from the set, so a drained
// link holds one counter on each side. (A message the sender gave up on
// leaves a gap the mark never passes; later ids then stay in the set —
// the bounded-failure assumption makes that the exception. The
// `net.above_mark_entries` gauge sums the sets of every live endpoint.)
//
// Thread-safe: in the concurrent runtime, send() is called from arbitrary
// party threads, on_raw() from the endpoint's delivery strand and retry
// timers from the pump thread. Internal state is mutex-guarded; the
// application handler is invoked outside the lock (the strand already
// serialises upcalls per party).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "util/lock_discipline.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace nonrep::net {

struct ReliableConfig {
  TimeMs retry_interval = 50;
  int max_retries = 20;  // bounded-failure assumption: enough for tests
};

class ReliableEndpoint {
 public:
  using Handler = std::function<void(const Address& from, BytesView payload)>;

  ReliableEndpoint(SimNetwork& network, Address address, ReliableConfig config = {});
  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  const Address& address() const noexcept { return address_; }
  void set_handler(Handler handler);

  /// At-least-once send with receiver-side dedup => exactly-once upcall.
  void send(const Address& to, Bytes payload);

  std::uint64_t retransmissions() const noexcept { return retransmissions_.load(); }
  std::uint64_t gave_up() const noexcept { return gave_up_.load(); }

  /// Per-message state held: un-ACKed sends plus delivered ids above each
  /// sender's mark. Zero once every link has drained.
  std::size_t per_message_entries() const;

 private:
  void on_raw(const Address& from, BytesView raw);
  void try_send(const Address& to, std::uint64_t msg_id);

  SimNetwork& network_;
  Address address_;
  ReliableConfig config_;

  struct Pending {
    Bytes payload;
    int attempts = 0;
    SimNetwork::TimerHandle retry_timer;  // cancelled on ACK
  };

  /// Receiver-side dedup state for one sender.
  struct Delivered {
    std::uint64_t mark = 0;         // every id <= mark has been delivered
    std::set<std::uint64_t> above;  // delivered ids above the mark

    /// Records `id` as delivered; false when it already was.
    bool first(std::uint64_t id);
  };

  struct PairHash {
    std::size_t operator()(const std::pair<Address, std::uint64_t>& k) const noexcept {
      return std::hash<Address>{}(k.first) ^ (k.second * 0x9e3779b97f4a7c15ull);
    }
  };

  mutable util::Mutex mu_{util::LockRank::kChannel, "net.channel"};
  Handler handler_ NONREP_GUARDED_BY(mu_);
  std::unordered_map<std::pair<Address, std::uint64_t>, Pending, PairHash> pending_
      NONREP_GUARDED_BY(mu_);  // keyed by (destination, id)
  std::unordered_map<Address, std::uint64_t> next_msg_id_ NONREP_GUARDED_BY(mu_);
  std::unordered_map<Address, Delivered> delivered_ NONREP_GUARDED_BY(mu_);
  obs::GaugeShare above_gauge_{"net.above_mark_entries"};  // sum of the `above` sets
  std::atomic<std::uint64_t> retransmissions_{0};
  std::atomic<std::uint64_t> gave_up_{0};
};

}  // namespace nonrep::net
