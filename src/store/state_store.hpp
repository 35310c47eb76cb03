// Digest-addressed state store (§3.5).
//
// "Non-repudiation evidence will include a signed secure digest of state
// that is held in a state store. Persistence services should support the
// mapping of the state digest to the representation of state in the state
// store." — i.e. content-addressed storage: put(state) -> digest,
// get(digest) -> state, so any agreed state referenced by evidence can be
// reconstructed and checked (§3.4 requirement ii).
//
// Concurrency: the store is lock-striped into `shard_count` shards keyed
// by the digest's *last* word (uniform SHA-256 output, so striping is
// balanced by construction; the in-shard hash uses the first word, keeping
// shard selection and bucket placement independent). put/get/contains
// touch exactly one shard mutex; party threads and delivery strands
// operate on disjoint shards in parallel. snapshot_to/restore_from lock
// all shards in index order to emit/ingest one coherent journal.
#pragma once

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "util/lock_discipline.hpp"
#include "util/result.hpp"

namespace nonrep::store {

class StateStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// `shard_count` is rounded up to a power of two (mask indexing).
  explicit StateStore(std::size_t shard_count = kDefaultShards);

  /// Store a state snapshot; returns its digest (idempotent).
  crypto::Digest put(BytesView state);

  /// Insert-if-absent variant: returns the digest plus whether the blob was
  /// newly stored. The store never removes or evicts entries, so the stored
  /// copy (and its digest address) stays valid for the store's lifetime —
  /// which is what lets snapshot/restore stream blobs without re-checking.
  std::pair<crypto::Digest, bool> get_or_put(BytesView state);

  /// Retrieve the state for a digest.
  Result<Bytes> get(const crypto::Digest& digest) const;

  bool contains(const crypto::Digest& digest) const;
  std::size_t size() const;
  std::uint64_t stored_bytes() const;
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Persist every blob into a fresh journal at `dir` (one data record per
  /// blob, all durable once this returns ok). Fails if the directory
  /// already holds segments. All shards are locked for the
  /// duration, so the snapshot is a single consistent cut.
  Status snapshot_to(const std::string& dir) const NONREP_NO_THREAD_SAFETY_ANALYSIS;

  /// Merge all blobs from a snapshot journal into this store; returns how
  /// many were new. The snapshot must scan clean (CRCs, no sequence gap);
  /// each blob is then checked by its content address — it is stored under
  /// the digest of its own bytes, so an altered blob cannot pose as another.
  Result<std::size_t> restore_from(const std::string& dir);

 private:
  struct Shard {
    mutable util::Mutex mu{util::LockRank::kStateStore, "store.state_store.shard",
                           util::LockTraits{.multi = true}};
    std::unordered_map<crypto::Digest, Bytes, crypto::DigestHash> blobs
        NONREP_GUARDED_BY(mu);
  };

  Shard& shard_for(const crypto::Digest& d) const {
    // Mix with a different slice of the digest than the in-shard hash uses
    // so shard selection and bucket placement stay independent.
    std::size_t h;
    std::memcpy(&h, d.data() + crypto::kSha256DigestSize - sizeof(h), sizeof(h));
    return *shards_[h & shard_mask_];
  }

  /// RAII over every shard mutex at once, acquired in *address* order —
  /// the one total order the lockdep stripe rule (LockTraits::multi)
  /// accepts for same-class nesting, and a deadlock-free order like any
  /// other total order. Only snapshot_to holds more than one shard.
  class AllShardsLock {
   public:
    explicit AllShardsLock(const std::vector<std::unique_ptr<Shard>>& shards)
        NONREP_NO_THREAD_SAFETY_ANALYSIS;
    ~AllShardsLock() NONREP_NO_THREAD_SAFETY_ANALYSIS;
    AllShardsLock(const AllShardsLock&) = delete;
    AllShardsLock& operator=(const AllShardsLock&) = delete;

   private:
    std::vector<const Shard*> ordered_;  // locked front-to-back, unlocked in reverse
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  obs::GaugeShare bytes_gauge_{"store.state_bytes"};
};

}  // namespace nonrep::store
