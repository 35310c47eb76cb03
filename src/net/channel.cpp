#include "net/channel.hpp"

#include "util/serialize.hpp"

namespace nonrep::net {

namespace {
constexpr std::uint8_t kData = 1;
constexpr std::uint8_t kAck = 2;
}  // namespace

bool ReliableEndpoint::Delivered::first(std::uint64_t id) {
  if (id <= mark) return false;
  if (id != mark + 1) return above.insert(id).second;
  ++mark;
  while (!above.empty() && *above.begin() == mark + 1) {
    above.erase(above.begin());
    ++mark;
  }
  return true;
}

ReliableEndpoint::ReliableEndpoint(SimNetwork& network, Address address,
                                   ReliableConfig config)
    : network_(network), address_(std::move(address)), config_(config) {
  network_.register_endpoint(address_,
                             [this](const Address& from, BytesView raw) { on_raw(from, raw); });
}

ReliableEndpoint::~ReliableEndpoint() {
  // Waits for in-flight delivery upcalls to this address to return.
  network_.unregister_endpoint(address_);
  // Cancel every pending retry timer — they capture `this` and would
  // otherwise fire into a destroyed endpoint if the pump keeps running.
  {
    util::MutexLock lk(mu_);
    for (auto& [key, pending] : pending_) {
      (void)key;
      if (pending.retry_timer) *pending.retry_timer = false;
    }
    pending_.clear();
  }
  // A timer closure that slipped past the pump's cancellation recheck may
  // still be running (ours or the owning RpcEndpoint's, whose members are
  // destroyed after us); wait it out before freeing the object.
  network_.quiesce_timers();
}

void ReliableEndpoint::set_handler(Handler handler) {
  util::MutexLock lk(mu_);
  handler_ = std::move(handler);
}

void ReliableEndpoint::send(const Address& to, Bytes payload) {
  std::uint64_t id;
  {
    util::MutexLock lk(mu_);
    id = ++next_msg_id_[to];
    pending_[{to, id}] = Pending{std::move(payload), 0, {}};
  }
  try_send(to, id);
}

void ReliableEndpoint::try_send(const Address& to, std::uint64_t msg_id) {
  Bytes frame;
  {
    util::MutexLock lk(mu_);
    auto it = pending_.find({to, msg_id});
    if (it == pending_.end()) return;
    Pending& p = it->second;
    if (p.attempts > config_.max_retries) {
      gave_up_.fetch_add(1);
      pending_.erase(it);
      return;
    }
    if (p.attempts > 0) retransmissions_.fetch_add(1);
    ++p.attempts;

    BinaryWriter w;
    w.u8(kData);
    w.u64(msg_id);
    w.bytes(p.payload);
    frame = std::move(w).take();
  }
  // Network calls outside our lock (lock order: channel -> network).
  network_.send(address_, to, std::move(frame));
  auto timer = network_.schedule_cancelable(
      config_.retry_interval, [this, to, msg_id] { try_send(to, msg_id); });
  util::MutexLock lk(mu_);
  if (auto it = pending_.find({to, msg_id}); it != pending_.end()) {
    it->second.retry_timer = std::move(timer);
  } else {
    *timer = false;  // ACKed between send and re-arm: kill the fresh timer
  }
}

std::size_t ReliableEndpoint::per_message_entries() const {
  util::MutexLock lk(mu_);
  std::size_t n = pending_.size();
  for (const auto& [from, d] : delivered_) {
    (void)from;
    n += d.above.size();
  }
  return n;
}

void ReliableEndpoint::on_raw(const Address& from, BytesView raw) {
  BinaryReader r(raw);
  auto type = r.u8();
  if (!type) return;
  auto id = r.u64();
  if (!id) return;

  if (type.value() == kAck) {
    util::MutexLock lk(mu_);
    auto it = pending_.find({from, id.value()});
    if (it != pending_.end()) {
      if (it->second.retry_timer) *it->second.retry_timer = false;
      pending_.erase(it);
    }
    return;
  }
  if (type.value() != kData) return;

  // Always (re-)acknowledge so lost ACKs are healed by retransmits.
  BinaryWriter ack;
  ack.u8(kAck);
  ack.u64(id.value());
  network_.send(address_, from, std::move(ack).take());

  Handler handler;
  {
    util::MutexLock lk(mu_);
    Delivered& d = delivered_[from];
    const auto held = std::ssize(d.above);
    const bool first = d.first(id.value());
    if (std::ssize(d.above) != held) above_gauge_.add(std::ssize(d.above) - held);
    if (!first) return;  // duplicate
    handler = handler_;
  }
  auto payload = r.bytes();
  if (!payload || !handler) return;
  handler(from, payload.value());
}

}  // namespace nonrep::net
