#include "pki/credential_manager.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace nonrep::pki {

namespace {

std::string cert_digest(const Certificate& cert) {
  const crypto::Digest d = crypto::Sha256::hash(cert.encode());
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

// Handles resolved once; recording is lock-free so it is safe under the
// manager's locks (memo hit rate = memo_hits / (memo_hits + object_verifies)).
struct PkiMetrics {
  obs::Counter& memo_hits = obs::Registry::global().counter("pki.memo_hits");
  obs::Counter& object_verifies = obs::Registry::global().counter("pki.object_verifies");
  obs::Counter& chain_cache_hits =
      obs::Registry::global().counter("pki.chain_cache_hits");
};

PkiMetrics& metrics() {
  static PkiMetrics m;
  return m;
}

}  // namespace

void CredentialManager::invalidate_caches_locked() const {
  // The chain cache and the object memo depend on trust state. The
  // VerifierCache is content-addressed (keyed by a digest of the key
  // bytes), so its entries can never go stale and survive root/cert/CRL
  // changes.
  {
    util::MutexLock lk(cache_mu_);
    chain_cache_.clear();
  }
  {
    util::WriteLock lk(memo_mu_);
    memo_.clear();
    memo_gauge_.reset();
  }
  trust_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

Status CredentialManager::add_trusted_root(const Certificate& root) {
  if (!root.self_signed() || !root.is_ca) {
    return Error::make("pki.bad_root", "root must be self-signed CA certificate");
  }
  if (!verifier_cache_.verify(root.issuer_algorithm, root.public_key, root.tbs(),
                              root.issuer_signature)) {
    return Error::make("pki.bad_root_signature", root.subject.str());
  }
  util::WriteLock lk(trust_mu_);
  roots_[root.subject.str()] = root;
  invalidate_caches_locked();
  return Status::ok_status();
}

void CredentialManager::add_certificate(const Certificate& cert) {
  util::WriteLock lk(trust_mu_);
  certs_[cert.subject.str()] = cert;
  // A new or replaced intermediate can change the outcome of cached walks.
  invalidate_caches_locked();
}

Status CredentialManager::install_crl(const RevocationList& crl) {
  util::WriteLock lk(trust_mu_);
  // The CRL must be signed by a known CA (root or stored intermediate).
  const Certificate* issuer_cert = nullptr;
  if (auto it = roots_.find(crl.issuer.str()); it != roots_.end()) {
    issuer_cert = &it->second;
  } else if (auto it2 = certs_.find(crl.issuer.str());
             it2 != certs_.end() && it2->second.is_ca) {
    issuer_cert = &it2->second;
  }
  if (issuer_cert == nullptr) {
    return Error::make("pki.unknown_crl_issuer", crl.issuer.str());
  }
  if (!verifier_cache_.verify(issuer_cert->algorithm, issuer_cert->public_key, crl.tbs(),
                              crl.signature)) {
    return Error::make("pki.bad_crl_signature", crl.issuer.str());
  }
  auto existing = crls_.find(crl.issuer.str());
  if (existing != crls_.end() && existing->second.issued_at > crl.issued_at) {
    return Error::make("pki.stale_crl", "held CRL is fresher");
  }
  crls_[crl.issuer.str()] = crl;
  // Freshly revoked serials must not be served from cached chain walks.
  invalidate_caches_locked();
  return Status::ok_status();
}

const Certificate* CredentialManager::find_locked(const PartyId& subject) const {
  if (auto it = certs_.find(subject.str()); it != certs_.end()) return &it->second;
  if (auto it = roots_.find(subject.str()); it != roots_.end()) return &it->second;
  return nullptr;
}

Result<Certificate> CredentialManager::find(const PartyId& subject) const {
  util::ReadLock lk(trust_mu_);
  if (const Certificate* cert = find_locked(subject)) return *cert;
  return Error::make("pki.unknown_party", subject.str());
}

bool CredentialManager::is_revoked_locked(const PartyId& issuer,
                                          const std::string& serial) const {
  auto it = crls_.find(issuer.str());
  return it != crls_.end() && it->second.revoked_serials.contains(serial);
}

bool CredentialManager::is_revoked(const PartyId& issuer, const std::string& serial) const {
  util::ReadLock lk(trust_mu_);
  return is_revoked_locked(issuer, serial);
}

std::size_t CredentialManager::chain_cache_size() const {
  util::MutexLock lk(cache_mu_);
  return chain_cache_.size();
}

std::size_t CredentialManager::chain_cache_hits() const {
  util::MutexLock lk(cache_mu_);
  return chain_cache_hits_;
}

Status CredentialManager::verify_chain(const Certificate& leaf, TimeMs at) const {
  util::ReadLock lk(trust_mu_);
  return verify_chain_locked(leaf, at);
}

Status CredentialManager::verify_chain_locked(const Certificate& leaf, TimeMs at,
                                              ValidityWindow* window_out) const {
  const std::string digest = cert_digest(leaf);
  {
    util::MutexLock cache_lk(cache_mu_);
    if (auto it = chain_cache_.find(digest); it != chain_cache_.end()) {
      // Trust state is unchanged since the walk (any mutation clears the
      // cache under the exclusive trust lock, which excludes this shared
      // hold), so only the time-dependent validity check remains.
      if (it->second.covers(at)) {
        ++chain_cache_hits_;
        metrics().chain_cache_hits.add();
        if (window_out != nullptr) *window_out = it->second;
        return Status::ok_status();
      }
      return Error::make("pki.expired",
                         leaf.subject.str() + " at t=" + std::to_string(at));
    }
  }

  constexpr int kMaxChain = 8;
  ValidityWindow window{leaf.not_before, leaf.not_after};
  Certificate current = leaf;
  for (int depth = 0; depth < kMaxChain; ++depth) {
    window.not_before = std::max(window.not_before, current.not_before);
    window.not_after = std::min(window.not_after, current.not_after);
    if (!current.valid_at(at)) {
      return Error::make("pki.expired", current.subject.str() + " at t=" + std::to_string(at));
    }
    if (is_revoked_locked(current.issuer, current.serial)) {
      return Error::make("pki.revoked", current.serial);
    }
    // Trusted root reached?
    if (auto it = roots_.find(current.issuer.str()); it != roots_.end()) {
      const Certificate& root = it->second;
      if (!verifier_cache_.verify(root.algorithm, root.public_key, current.tbs(),
                                  current.issuer_signature)) {
        return Error::make("pki.bad_signature", current.subject.str());
      }
      // The walk never time-checks the root itself, so the cached window
      // deliberately excludes it — cached and uncached answers must agree.
      if (window_out != nullptr) *window_out = window;
      util::MutexLock cache_lk(cache_mu_);
      chain_cache_.emplace(digest, window);
      return Status::ok_status();
    }
    // Otherwise walk to the stored intermediate.
    auto it = certs_.find(current.issuer.str());
    if (it == certs_.end()) {
      return Error::make("pki.incomplete_chain", "no certificate for issuer " +
                                                      current.issuer.str());
    }
    const Certificate& issuer_cert = it->second;
    if (!issuer_cert.is_ca) {
      return Error::make("pki.not_a_ca", issuer_cert.subject.str());
    }
    if (!verifier_cache_.verify(issuer_cert.algorithm, issuer_cert.public_key, current.tbs(),
                                current.issuer_signature)) {
      return Error::make("pki.bad_signature", current.subject.str());
    }
    current = issuer_cert;
  }
  return Error::make("pki.chain_too_long", leaf.subject.str());
}

Status CredentialManager::verify_signature(const PartyId& party, BytesView msg,
                                           BytesView signature, TimeMs at) const {
  util::ReadLock lk(trust_mu_);
  const Certificate* cert = find_locked(party);
  if (cert == nullptr) return Error::make("pki.unknown_party", party.str());
  if (auto chain = verify_chain_locked(*cert, at); !chain) return chain;
  if (!verifier_cache_.verify(cert->algorithm, cert->public_key, msg, signature)) {
    return Error::make("pki.signature_mismatch", party.str());
  }
  return Status::ok_status();
}

namespace {

// Memo key: SHA256(oid || claimed issuer). Committing to the party keeps a
// hit from vouching for an issuer the object was never verified against —
// two additional compression rounds per probe, noise next to the map walk.
crypto::Digest memo_key(const crypto::Digest& oid, const PartyId& party) {
  crypto::Sha256 h;
  h.update(BytesView(oid.data(), oid.size()));
  const std::string& p = party.str();
  h.update(BytesView(reinterpret_cast<const std::uint8_t*>(p.data()), p.size()));
  return h.finish();
}

}  // namespace

std::optional<CredentialManager::ValidityWindow> CredentialManager::memo_probe(
    const crypto::Digest& oid, const PartyId& party, TimeMs at) const {
  // The shared trust lock excludes mutations, so an entry read here cannot
  // be a leftover from a different trust state (mutations clear the memo
  // before releasing the exclusive lock).
  util::ReadLock lk(trust_mu_);
  util::ReadLock memo_lk(memo_mu_);
  auto it = memo_.find(memo_key(oid, party));
  if (it == memo_.end() || !it->second.covers(at)) return std::nullopt;
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  metrics().memo_hits.add();
  return it->second;
}

Result<CredentialManager::ValidityWindow> CredentialManager::verify_object(
    const crypto::Digest& oid, const PartyId& party, BytesView msg,
    BytesView signature, TimeMs at) const {
  const crypto::Digest key = memo_key(oid, party);
  util::ReadLock lk(trust_mu_);
  {
    util::ReadLock memo_lk(memo_mu_);
    auto it = memo_.find(key);
    if (it != memo_.end() && it->second.covers(at)) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics().memo_hits.add();
      return it->second;
    }
    // A memoized window that does not cover `at` falls through to the full
    // path: unlike a certificate (whose window *is* its validity), an
    // object's recorded window is just where the cached answer applies.
  }

  const Certificate* cert = find_locked(party);
  if (cert == nullptr) return Error::make("pki.unknown_party", party.str());
  ValidityWindow window;
  if (auto chain = verify_chain_locked(*cert, at, &window); !chain.ok()) {
    return chain.error();
  }
  if (!verifier_cache_.verify(cert->algorithm, cert->public_key, msg, signature)) {
    return Error::make("pki.signature_mismatch", party.str());
  }
  metrics().object_verifies.add();

  util::WriteLock memo_lk(memo_mu_);
  if (memo_.size() >= kMemoMaxEntries) {
    memo_.clear();
    memo_gauge_.reset();
  }
  if (memo_.insert_or_assign(key, window).second) memo_gauge_.add(1);
  return window;
}

std::size_t CredentialManager::memo_size() const {
  util::ReadLock lk(memo_mu_);
  return memo_.size();
}

void CredentialManager::clear_caches() {
  util::WriteLock lk(trust_mu_);
  invalidate_caches_locked();
}

}  // namespace nonrep::pki
