// Scheme-agnostic signing interface.
//
// The evidence layer (core/evidence.hpp) never names a concrete algorithm:
// the paper's framework is explicitly protocol- and mechanism-neutral
// ("interceptors can implement different mechanisms", §3.1), so parties can
// pick RSA or the forward-secure Merkle scheme per deployment descriptor.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "util/lock_discipline.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace nonrep::crypto {

enum class SigAlgorithm : std::uint8_t {
  kRsa = 1,
  kMerkle = 2,
};

std::string to_string(SigAlgorithm alg);

/// A party's signing capability. Implementations may be stateful (the
/// Merkle scheme consumes one-time keys), hence sign() is non-const.
class Signer {
 public:
  virtual ~Signer() = default;

  virtual SigAlgorithm algorithm() const noexcept = 0;
  /// Serialized public key in the algorithm's wire form.
  virtual Bytes public_key() const = 0;
  virtual Result<Bytes> sign(BytesView msg) = 0;
};

/// Verify `signature` over `msg` against a serialized public key.
/// Returns false for malformed keys/signatures — never throws.
bool verify(SigAlgorithm alg, BytesView public_key, BytesView msg, BytesView signature);

/// Memoizes decoded RSA public keys (and their pre-built Montgomery
/// contexts) keyed by a digest of the serialized key bytes, so steady-state
/// verification skips the decode and context setup: a hit costs one SHA-256
/// of the key bytes, then rsa_verify. Non-RSA algorithms pass through
/// unchanged.
///
/// Thread-safe: lookups take a shared lock and take a reference on the
/// cached key (its Montgomery context is built before it is published), so
/// the exponentiation runs without any cache lock and a concurrent clear()
/// can never pull state out from under a verifier.
class VerifierCache {
 public:
  bool verify(SigAlgorithm alg, BytesView public_key, BytesView msg, BytesView signature);

  void clear();
  std::size_t size() const;

 private:
  // Decoded keys by SHA-256 of the wire-form key. Bounded: cleared wholesale
  // if an adversarial workload pushes past kMaxEntries distinct keys.
  static constexpr std::size_t kMaxEntries = 1024;
  mutable util::SharedMutex mu_{util::LockRank::kVerifierKeys, "crypto.verifier_cache"};
  std::unordered_map<Digest, std::shared_ptr<const RsaPublicKey>, DigestHash> rsa_keys_
      NONREP_GUARDED_BY(mu_);
};

class RsaSigner final : public Signer {
 public:
  explicit RsaSigner(RsaPrivateKey key) : key_(std::move(key)) {}

  SigAlgorithm algorithm() const noexcept override { return SigAlgorithm::kRsa; }
  Bytes public_key() const override { return key_.pub.encode(); }
  Result<Bytes> sign(BytesView msg) override { return rsa_sign(key_, msg); }

  const RsaPublicKey& rsa_public() const noexcept { return key_.pub; }

 private:
  RsaPrivateKey key_;
};

class MerkleSchemeSigner final : public Signer {
 public:
  /// Validated construction: "merkle.bad_height" outside [1, 12].
  static Result<std::shared_ptr<MerkleSchemeSigner>> create(Drbg& rng, std::size_t height);

  /// Wraps an already-built (hence already-validated) tree.
  explicit MerkleSchemeSigner(MerkleSigner signer) : signer_(std::move(signer)) {}

  SigAlgorithm algorithm() const noexcept override { return SigAlgorithm::kMerkle; }
  Bytes public_key() const override;
  /// Serialized: the scheme consumes one-time leaves, and a party's
  /// application threads sign concurrently with its strand's handlers.
  /// Two signatures must never use the same leaf — that would void the
  /// one-time-signature security the evidence rests on.
  Result<Bytes> sign(BytesView msg) override {
    util::MutexLock lk(mu_);
    return signer_.sign(msg);
  }

  std::size_t remaining() const {
    util::MutexLock lk(mu_);
    return signer_.capacity() - signer_.used();
  }

 private:
  mutable util::Mutex mu_{util::LockRank::kSignerState, "crypto.merkle_signer"};
  MerkleSigner signer_ NONREP_GUARDED_BY(mu_);
};

}  // namespace nonrep::crypto
