#include "crypto/signer.hpp"

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "util/serialize.hpp"

namespace nonrep::crypto {

namespace {

// Handles resolved once; recording is a single relaxed atomic add.
struct VerifierCacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter("crypto.verifier_cache_hits");
  obs::Counter& misses = obs::Registry::global().counter("crypto.verifier_cache_misses");
};

VerifierCacheMetrics& verifier_cache_metrics() {
  static VerifierCacheMetrics m;
  return m;
}

}  // namespace

std::string to_string(SigAlgorithm alg) {
  switch (alg) {
    case SigAlgorithm::kRsa:
      return "rsa-pkcs1-sha256";
    case SigAlgorithm::kMerkle:
      return "merkle-lamport-sha256";
  }
  return "unknown";
}

Result<std::shared_ptr<MerkleSchemeSigner>> MerkleSchemeSigner::create(Drbg& rng,
                                                                       std::size_t height) {
  auto signer = MerkleSigner::create(rng, height);
  if (!signer) return signer.error();
  return std::make_shared<MerkleSchemeSigner>(std::move(signer).take());
}

Bytes MerkleSchemeSigner::public_key() const {
  // root digest || tree height
  BinaryWriter w;
  w.bytes(signer_.root());
  w.u32(static_cast<std::uint32_t>(signer_.height()));
  return std::move(w).take();
}

bool verify(SigAlgorithm alg, BytesView public_key, BytesView msg, BytesView signature) {
  switch (alg) {
    case SigAlgorithm::kRsa: {
      auto key = RsaPublicKey::decode(public_key);
      if (!key) return false;
      return rsa_verify(key.value(), msg, signature);
    }
    case SigAlgorithm::kMerkle: {
      BinaryReader r(public_key);
      auto root_bytes = r.bytes();
      if (!root_bytes) return false;
      auto height = r.u32();
      if (!height || height.value() == 0 || height.value() > 12) return false;
      Digest root{};
      if (!digest_from_bytes(root_bytes.value(), root)) return false;
      return merkle_verify(root, height.value(), msg, signature);
    }
  }
  return false;
}

bool VerifierCache::verify(SigAlgorithm alg, BytesView public_key, BytesView msg,
                           BytesView signature) {
  if (alg != SigAlgorithm::kRsa) {
    return crypto::verify(alg, public_key, msg, signature);
  }
  const Digest dg = Sha256::hash(public_key);
  std::shared_ptr<const RsaPublicKey> key;
  {
    util::ReadLock lk(mu_);
    if (auto it = rsa_keys_.find(dg); it != rsa_keys_.end()) key = it->second;
  }
  if (key) {
    verifier_cache_metrics().hits.add();
    return rsa_verify(*key, msg, signature);
  }
  verifier_cache_metrics().misses.add();
  auto decoded = RsaPublicKey::decode(public_key);
  if (!decoded) return false;
  auto fresh = std::make_shared<RsaPublicKey>(std::move(decoded).take());
  // Build the Montgomery context before publishing so no verifier builds it.
  fresh->montgomery();
  {
    util::WriteLock lk(mu_);
    if (rsa_keys_.size() >= kMaxEntries) rsa_keys_.clear();
    rsa_keys_.emplace(dg, fresh);
  }
  return rsa_verify(*fresh, msg, signature);
}

void VerifierCache::clear() {
  util::WriteLock lk(mu_);
  rsa_keys_.clear();
}

std::size_t VerifierCache::size() const {
  util::ReadLock lk(mu_);
  return rsa_keys_.size();
}

}  // namespace nonrep::crypto
