#include "pki/credential_manager.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace nonrep::pki {

namespace {

// Resolved once; recording is lock-free so it is safe under the manager's
// locks.
obs::Counter& chain_cache_hits_counter() {
  static obs::Counter& c = obs::Registry::global().counter("pki.chain_cache_hits");
  return c;
}

}  // namespace

CredentialManager::Stored CredentialManager::make_stored(const Certificate& cert) {
  return Stored{cert, crypto::Sha256::hash(cert.encode())};
}

void CredentialManager::invalidate_caches_locked() const {
  // The chain cache depends on trust state. The VerifierCache is
  // content-addressed (keyed by a digest of the key bytes), so its entries
  // can never go stale and survive root/cert/CRL changes.
  {
    util::MutexLock lk(cache_mu_);
    chain_cache_.clear();
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
  Stored stored = make_stored(root);
  util::WriteLock lk(trust_mu_);
  roots_.insert_or_assign(root.subject.str(), std::move(stored));
  invalidate_caches_locked();
  return Status::ok_status();
}

void CredentialManager::add_certificate(const Certificate& cert) {
  Stored stored = make_stored(cert);
  util::WriteLock lk(trust_mu_);
  certs_.insert_or_assign(cert.subject.str(), std::move(stored));
  // A new or replaced intermediate can change the outcome of cached walks.
  invalidate_caches_locked();
}

Status CredentialManager::install_crl(const RevocationList& crl) {
  util::WriteLock lk(trust_mu_);
  // The CRL must be signed by a known CA (root or stored intermediate).
  const Certificate* issuer_cert = nullptr;
  if (auto it = roots_.find(crl.issuer.str()); it != roots_.end()) {
    issuer_cert = &it->second.cert;
  } else if (auto it2 = certs_.find(crl.issuer.str());
             it2 != certs_.end() && it2->second.cert.is_ca) {
    issuer_cert = &it2->second.cert;
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

const CredentialManager::Stored* CredentialManager::find_locked(const PartyId& subject) const {
  if (auto it = certs_.find(subject.str()); it != certs_.end()) return &it->second;
  if (auto it = roots_.find(subject.str()); it != roots_.end()) return &it->second;
  return nullptr;
}

Result<Certificate> CredentialManager::find(const PartyId& subject) const {
  util::ReadLock lk(trust_mu_);
  if (const Stored* stored = find_locked(subject)) return stored->cert;
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
  const crypto::Digest digest = crypto::Sha256::hash(leaf.encode());
  util::ReadLock lk(trust_mu_);
  return verify_chain_locked(leaf, digest, at);
}

Status CredentialManager::verify_chain_locked(const Certificate& leaf,
                                              const crypto::Digest& leaf_digest, TimeMs at,
                                              ValidityWindow* window_out) const {
  {
    util::MutexLock cache_lk(cache_mu_);
    if (auto it = chain_cache_.find(leaf_digest); it != chain_cache_.end()) {
      // Trust state is unchanged since the walk (any mutation clears the
      // cache under the exclusive trust lock, which excludes this shared
      // hold), so only the time-dependent validity check remains.
      if (it->second.covers(at)) {
        ++chain_cache_hits_;
        chain_cache_hits_counter().add();
        if (window_out != nullptr) *window_out = it->second;
        return Status::ok_status();
      }
      return Error::make("pki.expired",
                         leaf.subject.str() + " at t=" + std::to_string(at));
    }
  }

  constexpr int kMaxChain = 8;
  ValidityWindow window{leaf.not_before, leaf.not_after};
  // Points at `leaf` or into certs_, which the shared trust lock keeps
  // unchanged for the whole walk.
  const Certificate* current = &leaf;
  for (int depth = 0; depth < kMaxChain; ++depth) {
    window.not_before = std::max(window.not_before, current->not_before);
    window.not_after = std::min(window.not_after, current->not_after);
    if (!current->valid_at(at)) {
      return Error::make("pki.expired", current->subject.str() + " at t=" + std::to_string(at));
    }
    if (is_revoked_locked(current->issuer, current->serial)) {
      return Error::make("pki.revoked", current->serial);
    }
    // Trusted root reached?
    if (auto it = roots_.find(current->issuer.str()); it != roots_.end()) {
      const Certificate& root = it->second.cert;
      if (!verifier_cache_.verify(root.algorithm, root.public_key, current->tbs(),
                                  current->issuer_signature)) {
        return Error::make("pki.bad_signature", current->subject.str());
      }
      // The walk never time-checks the root itself, so the cached window
      // deliberately excludes it — cached and uncached answers must agree.
      if (window_out != nullptr) *window_out = window;
      util::MutexLock cache_lk(cache_mu_);
      chain_cache_.emplace(leaf_digest, window);
      return Status::ok_status();
    }
    // Otherwise walk to the stored intermediate.
    auto it = certs_.find(current->issuer.str());
    if (it == certs_.end()) {
      return Error::make("pki.incomplete_chain", "no certificate for issuer " +
                                                      current->issuer.str());
    }
    const Certificate& issuer_cert = it->second.cert;
    if (!issuer_cert.is_ca) {
      return Error::make("pki.not_a_ca", issuer_cert.subject.str());
    }
    if (!verifier_cache_.verify(issuer_cert.algorithm, issuer_cert.public_key, current->tbs(),
                                current->issuer_signature)) {
      return Error::make("pki.bad_signature", current->subject.str());
    }
    current = &issuer_cert;
  }
  return Error::make("pki.chain_too_long", leaf.subject.str());
}

Result<CredentialManager::ValidityWindow> CredentialManager::verify_signature(
    const PartyId& party, BytesView msg, BytesView signature, TimeMs at) const {
  util::ReadLock lk(trust_mu_);
  const Stored* stored = find_locked(party);
  if (stored == nullptr) return Error::make("pki.unknown_party", party.str());
  const Certificate& cert = stored->cert;
  ValidityWindow window;
  if (auto chain = verify_chain_locked(cert, stored->digest, at, &window); !chain) {
    return chain.error();
  }
  if (!verifier_cache_.verify(cert.algorithm, cert.public_key, msg, signature)) {
    return Error::make("pki.signature_mismatch", party.str());
  }
  return window;
}

void CredentialManager::clear_caches() {
  util::WriteLock lk(trust_mu_);
  invalidate_caches_locked();
}

}  // namespace nonrep::pki
