// Per-party credential store and chain verifier (§3.5).
//
// Each trusted interceptor owns a CredentialManager holding: trusted root
// certificates, known subject certificates, and the freshest CRL per
// issuer. verify_chain() walks subject -> issuer(s) -> trusted root,
// checking signatures, validity windows, CA flags and revocation.
//
// Steady-state verification is cached three ways:
//  * a VerifierCache memoizes decoded signing keys (and their Montgomery
//    contexts) by key digest,
//  * successful chain walks are cached by leaf-certificate digest together
//    with the chain's intersected validity window, so re-verifying the same
//    leaf at a covered time does no signature work at all, and
//  * whole verified evidence objects are memoized by (object id, claimed
//    issuer) — the key commits to both, so the same bytes presented as a
//    different party never hit another party's entry (verify_object): a
//    content-addressed token seen before, under the same trust state, at a
//    time inside its recorded validity window, is accepted with one
//    shared-lock map probe — no chain walk, no RSA.
// All caches are invalidated whenever the trust state changes (certificate
// added, root added, CRL installed), so a revocation can never be masked by
// a stale cache entry. Only *successes* are memoized. The trust epoch
// counter ticks on every invalidation so external caches layered on top
// (e.g. the evidence service's segment memo) can follow along.
//
// Thread-safe: verification (the steady state) takes a shared lock on the
// trust state, so any number of delivery strands and batch-verify workers
// walk chains in parallel; mutations take the exclusive lock and clear the
// caches while no walk is in flight — a cached result can therefore never
// outlive the trust state it was computed under.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/lock_discipline.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "obs/metrics.hpp"
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

  /// Convenience: verify `signature` over `msg` as made by `party`,
  /// resolving and chain-checking the party's certificate first.
  Status verify_signature(const PartyId& party, BytesView msg, BytesView signature,
                          TimeMs at) const;

  /// Memoized form of verify_signature for content-addressed evidence:
  /// `oid` is the object id of the evidence object carrying (msg,
  /// signature). On a memo hit (same object verified before, trust state
  /// unchanged, `at` inside the recorded window) this is one shared-lock
  /// probe. On a miss it runs the full path and records the chain's
  /// intersected validity window under the (oid, party) pair — not the oid
  /// alone, so a hit can never vouch for an issuer the object was not
  /// verified against. The caller owns the oid ↔ (msg, signature) binding —
  /// object ids are collision-resistant digests of the object bytes, so the
  /// binding is stable by construction.
  Result<ValidityWindow> verify_object(const crypto::Digest& oid, const PartyId& party,
                                       BytesView msg, BytesView signature,
                                       TimeMs at) const;

  /// Memo lookup alone (no verification on miss): the recorded window when
  /// (oid, party) is memoized and covers `at`, nullopt otherwise.
  std::optional<ValidityWindow> memo_probe(const crypto::Digest& oid,
                                           const PartyId& party, TimeMs at) const;

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
  std::size_t memo_size() const;
  std::uint64_t memo_hits() const noexcept {
    return memo_hits_.load(std::memory_order_relaxed);
  }

  /// Drop every cached verification result (chain cache and object memo)
  /// and tick the epoch, as if the trust state had changed. Cold-path
  /// benchmarking and tests.
  void clear_caches();

 private:
  // Callers hold trust_mu_ (shared suffices for the walk; exclusive for
  // mutation paths). On success `window_out`, when non-null, receives the
  // chain's intersected validity window (root excluded, see below).
  Status verify_chain_locked(const Certificate& leaf, TimeMs at,
                             ValidityWindow* window_out = nullptr) const;
  bool is_revoked_locked(const PartyId& issuer, const std::string& serial) const;
  const Certificate* find_locked(const PartyId& subject) const;
  void invalidate_caches_locked() const;

  // Object memo holds at most this many windows. An entry costs about 64 B
  // (32-byte key, 16-byte window, the node's next pointer and cached hash)
  // plus its bucket slot, so the bound is about 64 MB; a server reaches it
  // after about 500k fx_direct exchanges. Overflow clears wholesale — the
  // memo refills from the verification stream it accelerates.
  static constexpr std::size_t kMemoMaxEntries = 1u << 20;

  // Lock order: trust_mu_ before cache_mu_ / memo_mu_ (never the reverse;
  // cache_mu_ and memo_mu_ are never nested within each other). Enforced by
  // the ranks below (util::LockRank) and checked at runtime by lockdep.
  mutable util::SharedMutex trust_mu_{util::LockRank::kTrustRoots, "pki.trust_roots"};
  std::unordered_map<std::string, Certificate> roots_;  // by subject id
  std::unordered_map<std::string, Certificate> certs_;  // by subject id
  std::unordered_map<std::string, RevocationList> crls_;  // by issuer id

  // Keyed by SHA-256 of the leaf certificate's full encoding. Mutable: the
  // caches are logically const memoization of const queries. Guarded by
  // cache_mu_ — chain walks hold trust_mu_ only shared, yet must record
  // their result. The verifier cache is internally synchronized.
  mutable util::Mutex cache_mu_{util::LockRank::kVerifyCache, "pki.chain_cache"};
  mutable std::unordered_map<std::string, ValidityWindow> chain_cache_;
  mutable crypto::VerifierCache verifier_cache_;
  mutable std::size_t chain_cache_hits_ = 0;

  // Object-id memo (verify_object). shared_mutex: the steady state is
  // concurrent probes from delivery strands and audit workers.
  mutable util::SharedMutex memo_mu_{util::LockRank::kVerifyMemo, "pki.object_memo"};
  mutable std::unordered_map<crypto::Digest, ValidityWindow, crypto::DigestHash> memo_;
  mutable obs::GaugeShare memo_gauge_{"pki.object_memo_entries"};  // memo_.size()
  mutable std::atomic<std::uint64_t> memo_hits_{0};
  mutable std::atomic<std::uint64_t> trust_epoch_{0};
};

}  // namespace nonrep::pki
