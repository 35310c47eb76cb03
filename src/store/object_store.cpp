#include "store/object_store.hpp"

#include "obs/metrics.hpp"
#include "util/hex.hpp"
#include "util/serialize.hpp"

namespace nonrep::store {

namespace {

// Handles resolved once; recording is lock-free so it is safe under the
// shard mutex.
struct StoreMetrics {
  obs::Counter& puts = obs::Registry::global().counter("store.object_puts");
  obs::Counter& dedup_hits = obs::Registry::global().counter("store.dedup_hits");
  obs::Counter& dedup_bytes = obs::Registry::global().counter("store.dedup_bytes");
};

StoreMetrics& store_metrics() {
  static StoreMetrics m;
  return m;
}

}  // namespace

std::string typesig_name(std::uint32_t typesig) {
  std::string out;
  out.reserve(4);
  bool printable = true;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const char c = static_cast<char>((typesig >> shift) & 0xffu);
    printable = printable && c >= 0x20 && c < 0x7f;
    out.push_back(c);
  }
  if (printable) return out;
  return "0x" + to_hex(to_bytes(out));
}

ObjectId object_id(std::uint32_t typesig, BytesView payload) {
  BinaryWriter w;
  w.u32(typesig);
  w.u64(payload.size());
  crypto::Sha256 h;
  h.update(w.data());
  h.update(payload);
  return h.finish();
}

ObjectStore::ObjectStore(std::size_t shard_count) {
  std::size_t n = 1;
  while (n < shard_count) n <<= 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = n - 1;
}

ObjectStore::PutResult ObjectStore::put(std::uint32_t typesig, BytesView payload) {
  PutResult out;
  out.id = object_id(typesig, payload);  // hash outside the lock
  logical_bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  store_metrics().puts.add();
  Shard& shard = shard_for(out.id);
  util::MutexLock lk(shard.mu);
  auto [it, inserted] = shard.objects.try_emplace(out.id);
  if (inserted) {
    it->second.typesig = typesig;
    it->second.payload.assign(payload.begin(), payload.end());
    shard.stored_bytes += payload.size();
    out.fresh = true;
  } else {
    dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    store_metrics().dedup_hits.add();
    store_metrics().dedup_bytes.add(payload.size());
  }
  return out;
}

Result<Bytes> ObjectStore::get(const ObjectId& id, std::uint32_t expected_typesig) const {
  Shard& shard = shard_for(id);
  util::MutexLock lk(shard.mu);
  auto it = shard.objects.find(id);
  if (it == shard.objects.end()) {
    return Error::make("store.unknown_object", "no object for requested id");
  }
  if (it->second.typesig != expected_typesig) {
    return Error::make("store.typesig_mismatch",
                       "object is " + typesig_name(it->second.typesig) + ", requested as " +
                           typesig_name(expected_typesig));
  }
  return it->second.payload;
}

Result<std::uint32_t> ObjectStore::typesig_of(const ObjectId& id) const {
  Shard& shard = shard_for(id);
  util::MutexLock lk(shard.mu);
  auto it = shard.objects.find(id);
  if (it == shard.objects.end()) {
    return Error::make("store.unknown_object", "no object for requested id");
  }
  return it->second.typesig;
}

bool ObjectStore::contains(const ObjectId& id) const {
  Shard& shard = shard_for(id);
  util::MutexLock lk(shard.mu);
  return shard.objects.contains(id);
}

std::size_t ObjectStore::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lk(shard->mu);
    n += shard->objects.size();
  }
  return n;
}

std::uint64_t ObjectStore::stored_bytes() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lk(shard->mu);
    n += shard->stored_bytes;
  }
  return n;
}

double ObjectStore::dedup_ratio() const {
  const std::uint64_t stored = stored_bytes();
  if (stored == 0) return 1.0;
  return static_cast<double>(logical_bytes()) / static_cast<double>(stored);
}

}  // namespace nonrep::store
