#include "store/state_store.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <functional>

#include "journal/reader.hpp"
#include "journal/writer.hpp"

namespace nonrep::store {

StateStore::StateStore(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shard_count = std::bit_ceil(shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shard_count - 1;
}

crypto::Digest StateStore::put(BytesView state) { return get_or_put(state).first; }

std::pair<crypto::Digest, bool> StateStore::get_or_put(BytesView state) {
  // Hash outside any lock: it is the expensive part of a put.
  const crypto::Digest d = crypto::Sha256::hash(state);
  Shard& s = shard_for(d);
  util::MutexLock lk(s.mu);
  auto [it, inserted] = s.blobs.try_emplace(d, Bytes(state.begin(), state.end()));
  if (inserted) bytes_gauge_.add(static_cast<std::int64_t>(it->second.size()));
  return {d, inserted};
}

Result<Bytes> StateStore::get(const crypto::Digest& digest) const {
  const Shard& s = shard_for(digest);
  util::MutexLock lk(s.mu);
  auto it = s.blobs.find(digest);
  if (it == s.blobs.end()) {
    return Error::make("store.unknown_digest", "no state for digest");
  }
  return it->second;
}

bool StateStore::contains(const crypto::Digest& digest) const {
  const Shard& s = shard_for(digest);
  util::MutexLock lk(s.mu);
  return s.blobs.contains(digest);
}

std::size_t StateStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    util::MutexLock lk(s->mu);
    n += s->blobs.size();
  }
  return n;
}

std::uint64_t StateStore::stored_bytes() const {
  return static_cast<std::uint64_t>(bytes_gauge_.share());
}

StateStore::AllShardsLock::AllShardsLock(
    const std::vector<std::unique_ptr<Shard>>& shards) {
  ordered_.reserve(shards.size());
  for (const auto& s : shards) ordered_.push_back(s.get());
  std::sort(ordered_.begin(), ordered_.end(), [](const Shard* a, const Shard* b) {
    return std::less<const util::Mutex*>{}(&a->mu, &b->mu);
  });
  for (const Shard* s : ordered_) s->mu.lock();
}

StateStore::AllShardsLock::~AllShardsLock() {
  for (auto it = ordered_.rbegin(); it != ordered_.rend(); ++it) (*it)->mu.unlock();
}

Status StateStore::snapshot_to(const std::string& dir) const {
  auto existing = journal::Segment::list(dir);
  if (existing && !existing.value().empty()) {
    return Error::make("store.snapshot_exists",
                       "journal at " + dir + " already has segments");
  }
  auto writer = journal::Writer::open(journal::Options{.dir = dir});
  if (!writer) return writer.error();
  const AllShardsLock locks(shards_);  // one consistent cut across shards
  for (const auto& shard : shards_) {
    for (const auto& [digest, blob] : shard->blobs) {
      (void)digest;  // recomputed from content on restore
      auto staged = writer.value()->append_async(blob);
      if (!staged) return staged.error();
    }
  }
  return writer.value()->close();  // seals and waits for every barrier
}

Result<std::size_t> StateStore::restore_from(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Error::make("store.snapshot_missing", "no snapshot journal at " + dir);
  }
  auto recovered = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  if (!recovered) return recovered.error();
  if (!recovered.value().clean) {
    return Error::make("store.snapshot_corrupt",
                       "snapshot journal at " + dir + " does not scan clean");
  }
  std::size_t fresh = 0;
  for (const auto& rec : recovered.value().records) {
    if (get_or_put(rec.payload).second) ++fresh;
  }
  return fresh;
}

}  // namespace nonrep::store
