// Content-addressed, typed evidence objects.
//
// An object is a `{typesig, size}`-headered payload identified by the
// SHA-256 digest of its full encoding (header included, so the type is
// part of the identity — the same payload filed under two types is two
// objects). object_id() of a token keys the credential manager's
// verification memo; no logged payload is copied here. ObjectStore keeps
// each distinct object once, for tools that gather evidence from many
// journals; a later put of the same bytes is a hash plus a map probe.
//
//   object id preimage
//   +---------+--------+-----------+
//   | typesig |  size  |  payload  |      id = SHA-256(header || payload)
//   |   u32   |  u64   |  size B   |
//   +---------+--------+-----------+
//
// Concurrency follows the StateStore conventions: lock-striped shards keyed
// by the digest's last word (shard choice and in-shard bucket placement use
// disjoint digest slices), so concurrent puts and gets touch exactly one
// shard mutex. The dedup counters are atomics. Objects are never removed or
// evicted: a stored payload (and its id) stays valid for the store's
// lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/lock_discipline.hpp"
#include "crypto/sha256.hpp"
#include "util/result.hpp"

namespace nonrep::store {

/// Object ids are plain SHA-256 digests of the encoded object.
using ObjectId = crypto::Digest;

/// 4-character type signature packed into a u32 (big-endian, so the code
/// reads left-to-right in a hex dump).
constexpr std::uint32_t make_typesig(char a, char b, char c, char d) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(a)) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d));
}

/// The evidence stack's object types.
inline constexpr std::uint32_t kTypeToken = make_typesig('t', 'o', 'k', ' ');      // evidence token
inline constexpr std::uint32_t kTypeTimestamp = make_typesig('t', 's', 'a', ' ');  // TSA countersignature
inline constexpr std::uint32_t kTypeCert = make_typesig('c', 'r', 't', ' ');       // certificate
inline constexpr std::uint32_t kTypeBlob = make_typesig('b', 'l', 'b', ' ');       // untyped payload

/// Printable form of a typesig ("tok ", or a hex rendering for bytes that
/// are not printable ASCII).
std::string typesig_name(std::uint32_t typesig);

/// Object id: SHA-256 over the {typesig, size} header then the payload, in
/// one pass without materializing the encoding.
ObjectId object_id(std::uint32_t typesig, BytesView payload);

class ObjectStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// `shard_count` is rounded up to a power of two (mask indexing).
  explicit ObjectStore(std::size_t shard_count = kDefaultShards);

  struct PutResult {
    ObjectId id{};
    bool fresh = false;  // true when this call stored the object
  };

  /// Intern an object; idempotent. A duplicate put is a hash + one shard
  /// probe and bumps the dedup counters instead of storing a second copy.
  PutResult put(std::uint32_t typesig, BytesView payload);

  /// Retrieve an object's payload, checking its type: asking for an id
  /// under the wrong typesig is an error ("store.typesig_mismatch"), never
  /// a reinterpretation.
  Result<Bytes> get(const ObjectId& id, std::uint32_t expected_typesig) const;

  /// The stored type of an object ("store.unknown_object" if absent).
  Result<std::uint32_t> typesig_of(const ObjectId& id) const;

  bool contains(const ObjectId& id) const;
  std::size_t size() const;
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Unique payload bytes held (one copy per distinct object).
  std::uint64_t stored_bytes() const;
  /// Payload bytes across every put, duplicates included — what a store
  /// without dedup would hold.
  std::uint64_t logical_bytes() const noexcept {
    return logical_bytes_.load(std::memory_order_relaxed);
  }
  /// Puts that found their object already present.
  std::uint64_t dedup_hits() const noexcept {
    return dedup_hits_.load(std::memory_order_relaxed);
  }
  /// logical_bytes / stored_bytes (1.0 while empty).
  double dedup_ratio() const;

 private:
  struct Object {
    std::uint32_t typesig = 0;
    Bytes payload;
  };

  struct Shard {
    mutable util::Mutex mu{util::LockRank::kObjectStore, "store.object_store.shard",
                           util::LockTraits{.multi = true}};
    std::unordered_map<ObjectId, Object, crypto::DigestHash> objects
        NONREP_GUARDED_BY(mu);
    std::uint64_t stored_bytes NONREP_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const ObjectId& id) const {
    // Mix with a different slice of the digest than the in-shard hash uses
    // so shard selection and bucket placement stay independent.
    std::size_t h;
    std::memcpy(&h, id.data() + crypto::kSha256DigestSize - sizeof(h), sizeof(h));
    return *shards_[h & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint64_t> logical_bytes_{0};
  std::atomic<std::uint64_t> dedup_hits_{0};
};

}  // namespace nonrep::store
