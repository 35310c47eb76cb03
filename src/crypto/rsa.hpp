// RSA signatures (PKCS#1 v1.5-style encoding over SHA-256), from scratch.
//
// The paper requires "a signature scheme such that signature sig_A(x) by A
// on data x is both verifiable and unforgeable" (§3.5). Keys are generated
// with Miller–Rabin primality testing; e is fixed to 65537 and the private
// exponent is recovered via the identity d = (1 + phi*(e - phi^{-1} mod e))/e,
// which needs only single-limb division (see bigint.hpp design notes).
//
// Hot-path design: each key lazily builds and caches the Montgomery context
// for its modulus, so repeated sign/verify calls pay the context setup once.
// Private keys carry the CRT parameters (p, q, dp, dq, qinv); signing runs
// two half-size exponentiations and recombines, with a fault self-check
// (verify s^e == m before emitting) that falls back to the full-width path
// on any miscomputation so an invalid signature can never escape.
#pragma once

#include <cstdint>
#include <memory>

#include "util/lock_discipline.hpp"
#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace nonrep::crypto {

struct RsaPublicKey {
  BigUint n;
  std::uint32_t e = 65537;

  RsaPublicKey() = default;
  // The context cache carries a mutex, so copies are spelled out: they
  // share the already-built Montgomery context (snapshot under the source's
  // lock) but get their own lock. Moves fall back to these.
  RsaPublicKey(const RsaPublicKey& o) : n(o.n), e(o.e), mont_(o.mont_snapshot()) {}
  RsaPublicKey& operator=(const RsaPublicKey& o) {
    if (this != &o) {
      n = o.n;
      e = o.e;
      auto snap = o.mont_snapshot();
      util::MutexLock lk(mont_mu_);
      mont_ = std::move(snap);
    }
    return *this;
  }

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  /// Cached Montgomery context for n, built on first use and shared across
  /// copies made afterwards. Not serialized. Thread-safe to build and read
  /// concurrently (verification fans out across the worker pool); `n` must
  /// not be mutated once the key is shared between threads — the modulus
  /// check only guards single-threaded reassignment, where a stale context
  /// would silently compute mod the wrong modulus.
  const Montgomery& montgomery() const {
    util::MutexLock lk(mont_mu_);
    if (!mont_ || mont_->modulus() != n) mont_ = std::make_shared<const Montgomery>(n);
    return *mont_;
  }

  Bytes encode() const;
  static Result<RsaPublicKey> decode(BytesView b);

 private:
  std::shared_ptr<const Montgomery> mont_snapshot() const {
    util::MutexLock lk(mont_mu_);
    return mont_;
  }

  mutable util::Mutex mont_mu_{util::LockRank::kCryptoContext, "crypto.mont"};
  mutable std::shared_ptr<const Montgomery> mont_;
};

struct RsaPrivateKey {
  RsaPublicKey pub;
  BigUint d;
  // CRT parameters; every encoded key carries them. A key assembled in
  // memory without them signs through the full-width exponentiation, the
  // same path the CRT fault check falls back to.
  BigUint p, q, dp, dq, qinv;

  RsaPrivateKey() = default;
  RsaPrivateKey(const RsaPrivateKey& o)
      : pub(o.pub), d(o.d), p(o.p), q(o.q), dp(o.dp), dq(o.dq), qinv(o.qinv) {
    util::MutexLock lk(o.mont_mu_);
    mont_p_ = o.mont_p_;
    mont_q_ = o.mont_q_;
  }
  RsaPrivateKey& operator=(const RsaPrivateKey& o) {
    if (this != &o) {
      pub = o.pub;
      d = o.d;
      p = o.p;
      q = o.q;
      dp = o.dp;
      dq = o.dq;
      qinv = o.qinv;
      std::shared_ptr<const Montgomery> sp, sq;
      {
        util::MutexLock lk(o.mont_mu_);
        sp = o.mont_p_;
        sq = o.mont_q_;
      }
      util::MutexLock lk(mont_mu_);
      mont_p_ = std::move(sp);
      mont_q_ = std::move(sq);
    }
    return *this;
  }

  bool has_crt() const noexcept { return !p.is_zero() && !q.is_zero(); }

  const Montgomery& montgomery_p() const {
    util::MutexLock lk(mont_mu_);
    if (!mont_p_ || mont_p_->modulus() != p) mont_p_ = std::make_shared<const Montgomery>(p);
    return *mont_p_;
  }
  const Montgomery& montgomery_q() const {
    util::MutexLock lk(mont_mu_);
    if (!mont_q_ || mont_q_->modulus() != q) mont_q_ = std::make_shared<const Montgomery>(q);
    return *mont_q_;
  }

  /// Versioned canonical encoding (version 2): n, e, d and the CRT
  /// parameters p, q, dp, dq, qinv.
  Bytes encode() const;
  /// Rejects any other version (the retired v1 (n, e, d) triple included)
  /// and CRT parameters that do not multiply to n, with rsa.bad_key.
  static Result<RsaPrivateKey> decode(BytesView b);

 private:
  mutable util::Mutex mont_mu_{util::LockRank::kCryptoContext, "crypto.mont"};
  mutable std::shared_ptr<const Montgomery> mont_p_;
  mutable std::shared_ptr<const Montgomery> mont_q_;
};

/// Generate a key pair with modulus of `bits` (>= 256; tests use 512,
/// benches 1024/2048). Deterministic given the DRBG state.
RsaPrivateKey rsa_generate(Drbg& rng, std::size_t bits);

/// Sign SHA-256(msg) with PKCS#1 v1.5 DigestInfo padding. Uses CRT when the
/// key carries CRT parameters (with recombine-and-verify fault check),
/// full-width m^d otherwise.
Bytes rsa_sign(const RsaPrivateKey& key, BytesView msg);

/// Verify; false on any mismatch (never throws on malformed signatures).
bool rsa_verify(const RsaPublicKey& key, BytesView msg, BytesView signature);

/// Miller–Rabin probabilistic primality test (exposed for tests).
bool is_probable_prime(const BigUint& n, Drbg& rng, int rounds = 16);

}  // namespace nonrep::crypto
