// Arbitrary-precision unsigned integers for RSA.
//
// Design notes:
//  * 64-bit limbs, little-endian order, 128-bit intermediate products
//    (portable 32-bit mulhi fallback when __int128 is unavailable).
//  * Modular exponentiation uses Montgomery multiplication (CIOS, fused
//    inner loops, masked final subtract) with fixed 4-bit windows. The
//    kernel lives in mont_kernel.hpp: allocation-free over raw limbs, with
//    compile-time widths for 4/8/16/32-limb moduli and a runtime-width
//    instantiation of the same source for any other size. General division
//    (Knuth algorithm D over 32-bit digits) backs `mod`/`divmod` and the
//    Montgomery R^2 setup, and is needed only at context construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace nonrep::crypto {

namespace mont {
struct Modulus;
}

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t v);

  static BigUint from_bytes_be(BytesView b);
  /// Big-endian encoding padded/truncated to `size` bytes (value must fit).
  Bytes to_bytes_be(std::size_t size) const;
  /// Minimal big-endian encoding (empty for zero).
  Bytes to_bytes_be() const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1u); }
  std::size_t bit_length() const noexcept;
  bool bit(std::size_t i) const noexcept;
  std::size_t limb_count() const noexcept { return limbs_.size(); }

  /// Three-way compare: -1, 0, +1.
  static int cmp(const BigUint& a, const BigUint& b) noexcept;
  friend bool operator==(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) == 0; }
  friend bool operator<(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) < 0; }
  friend bool operator<=(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) <= 0; }
  friend bool operator>(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) > 0; }
  friend bool operator>=(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) >= 0; }
  friend bool operator!=(const BigUint& a, const BigUint& b) noexcept { return cmp(a, b) != 0; }

  static BigUint add(const BigUint& a, const BigUint& b);
  /// Requires a >= b.
  static BigUint sub(const BigUint& a, const BigUint& b);
  static BigUint mul(const BigUint& a, const BigUint& b);
  BigUint shl(std::size_t bits) const;
  BigUint shr(std::size_t bits) const;

  /// Quotient and remainder by a single limb. `divisor` must be non-zero.
  static BigUint div_small(const BigUint& a, std::uint32_t divisor, std::uint32_t& remainder);
  static std::uint32_t mod_small(const BigUint& a, std::uint32_t divisor);

  /// Full long division: a = q*m + rem with rem < m. `m` must be non-zero.
  static BigUint divmod(const BigUint& a, const BigUint& m, BigUint& rem);

  /// a mod m via long division.
  static BigUint mod(const BigUint& a, const BigUint& m);

  /// a^e mod m; m must be odd (Montgomery).
  static BigUint mod_exp(const BigUint& a, const BigUint& e, const BigUint& m);

  std::string to_hex_string() const;

 private:
  friend class Montgomery;
  void trim();

  std::vector<std::uint64_t> limbs_;  // little-endian
};

/// Montgomery context for a fixed odd modulus. Construction costs two long
/// divisions plus one wide multiply; callers on hot paths should build the
/// context once per modulus and reuse it (RSA keys cache one per key).
/// Immutable once built, so one context can serve many threads: every call
/// brings its own scratch.
class Montgomery {
 public:
  explicit Montgomery(const BigUint& modulus);

  const BigUint& modulus() const noexcept { return n_; }
  /// R mod n — the Montgomery-domain representation of 1.
  const BigUint& one_mont() const noexcept { return one_mont_; }

  /// x*R mod n for any x (wider values are reduced without a division).
  BigUint to_mont(const BigUint& x) const;
  BigUint from_mont(const BigUint& x) const;
  /// a*b*R^{-1} mod n. Montgomery-domain operands are < n by construction;
  /// any other operand is reduced by a long division first.
  BigUint mul(const BigUint& a_mont, const BigUint& b_mont) const;
  /// a^e mod n with a in normal domain; returns normal domain.
  /// Fixed 4-bit-window ladder: 16-entry table, 4 squarings + at most one
  /// multiply per window; one scratch allocation per call.
  BigUint exp(const BigUint& a, const BigUint& e) const;

 private:
  mont::Modulus view() const noexcept;

  BigUint n_;
  BigUint one_mont_;                    // R mod n
  std::vector<std::uint64_t> consts_;  // R^2 mod n, then R mod n; k limbs each
  std::uint64_t n0_inv_;                // -n^{-1} mod 2^64
  std::size_t k_;                       // limb count of n
};

}  // namespace nonrep::crypto
