// Per-party credential store and chain verifier (§3.5).
//
// Each trusted interceptor owns a CredentialManager holding: trusted root
// certificates, known subject certificates, and the freshest CRL per
// issuer. verify_chain() walks subject -> issuer(s) -> trusted root,
// checking signatures, validity windows, CA flags and revocation.
//
// Steady-state verification is cached two ways:
//  * a VerifierCache memoizes decoded signing keys (and their Montgomery
//    contexts) by key digest, and
//  * successful chain walks are cached by leaf-certificate digest together
//    with the chain's intersected validity window, so re-verifying the same
//    leaf at a covered time does no certificate signature work at all. A
//    stored certificate's digest is computed once, when it is added.
// Every token signature itself is checked on every verification. The chain
// cache is invalidated whenever the trust state changes (certificate added,
// root added, CRL installed), so a revocation can never be masked by a stale
// cache entry. Only *successes* are cached. The trust epoch counter ticks on
// every invalidation so external caches layered on top (e.g. the evidence
// service's segment memo) can follow along.
//
// Thread-safe: verification (the steady state) takes a shared lock on the
// trust state, so any number of delivery strands and batch-verify workers
// walk chains in parallel; mutations take the exclusive lock and clear the
// caches while no walk is in flight — a cached result can therefore never
// outlive the trust state it was computed under.
#pragma once

#include <atomic>
#include <string>
#include <unordered_map>

#include "util/lock_discipline.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "pki/certificate.hpp"
#include "pki/revocation.hpp"

namespace nonrep::pki {

class CredentialManager {
 public:
  /// Time range over which a verified result holds without re-checking —
  /// the intersection of the chain's certificate validity windows.
  struct ValidityWindow {
    TimeMs not_before = 0;
    TimeMs not_after = 0;
    bool covers(TimeMs at) const noexcept { return at >= not_before && at <= not_after; }
  };

  /// Anchor of trust; its signature is checked against its own key.
  Status add_trusted_root(const Certificate& root);

  /// Store a (non-root) certificate for later lookup/verification.
  void add_certificate(const Certificate& cert);

  /// Install a CRL after verifying the issuer's signature; stale CRLs
  /// (older than the held one) are rejected.
  Status install_crl(const RevocationList& crl);

  /// Find the stored certificate for a party.
  Result<Certificate> find(const PartyId& subject) const;

  /// Full chain verification of `leaf` at time `at`.
  Status verify_chain(const Certificate& leaf, TimeMs at) const;

  /// Verify `signature` over `msg` as made by `party` at time `at`:
  /// resolve the party's certificate, chain-check it (validity, revocation,
  /// issuer signatures), then check the signature. On success returns the
  /// chain's intersected validity window — the range over which the answer
  /// holds under the current trust state.
  Result<ValidityWindow> verify_signature(const PartyId& party, BytesView msg,
                                          BytesView signature, TimeMs at) const;

  bool is_revoked(const PartyId& issuer, const std::string& serial) const;

  /// Monotone counter, ticked on every trust mutation (root/cert/CRL).
  /// External caches keyed on verification results must drop entries whose
  /// recorded epoch differs from the current one.
  std::uint64_t trust_epoch() const noexcept {
    return trust_epoch_.load(std::memory_order_acquire);
  }

  /// Cache observability (tests and benches).
  std::size_t chain_cache_size() const;
  std::size_t chain_cache_hits() const;

  /// Drop every cached chain walk and tick the epoch, as if the trust
  /// state had changed. Cold-path benchmarking and tests.
  void clear_caches();

 private:
  // Callers hold trust_mu_ (shared suffices for the walk; exclusive for
  // mutation paths). On success `window_out`, when non-null, receives the
  // chain's intersected validity window (root excluded, see below).
  // `leaf_digest` is SHA-256 of leaf.encode(), the chain cache key.
  Status verify_chain_locked(const Certificate& leaf, const crypto::Digest& leaf_digest,
                             TimeMs at, ValidityWindow* window_out = nullptr) const;
  bool is_revoked_locked(const PartyId& issuer, const std::string& serial) const;

  // A held certificate with its digest, computed once when it is added.
  struct Stored {
    Certificate cert;
    crypto::Digest digest{};
  };
  static Stored make_stored(const Certificate& cert);
  const Stored* find_locked(const PartyId& subject) const;
  void invalidate_caches_locked() const;

  // Lock order: trust_mu_ before cache_mu_ (never the reverse). Enforced by
  // the ranks below (util::LockRank) and checked at runtime by lockdep.
  mutable util::SharedMutex trust_mu_{util::LockRank::kTrustRoots, "pki.trust_roots"};
  std::unordered_map<std::string, Stored> roots_;  // by subject id
  std::unordered_map<std::string, Stored> certs_;  // by subject id
  std::unordered_map<std::string, RevocationList> crls_;  // by issuer id

  // Keyed by SHA-256 of the leaf certificate's full encoding. Mutable: the
  // caches are logically const memoization of const queries. Guarded by
  // cache_mu_ — chain walks hold trust_mu_ only shared, yet must record
  // their result. The verifier cache is internally synchronized.
  mutable util::Mutex cache_mu_{util::LockRank::kVerifyCache, "pki.chain_cache"};
  mutable std::unordered_map<crypto::Digest, ValidityWindow, crypto::DigestHash> chain_cache_;
  mutable crypto::VerifierCache verifier_cache_;
  mutable std::size_t chain_cache_hits_ = 0;
  mutable std::atomic<std::uint64_t> trust_epoch_{0};
};

}  // namespace nonrep::pki
