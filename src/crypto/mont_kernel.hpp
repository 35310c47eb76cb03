// Montgomery arithmetic over raw little-endian 64-bit limb arrays: the one
// kernel behind crypto::Montgomery.
//
// Every routine is a template over the limb count K. K in {4, 8, 16, 32}
// gives compile-time loop bounds (the CRT halves and full moduli of
// 512-4096-bit RSA keys); K == kRuntimeWidth instantiates the same source
// with the width read from the modulus, for every other size. Nothing here
// allocates: callers pass every buffer, so an immutable context can be
// shared across threads while each call brings its own scratch.
//
// Internal to the crypto layer: included by bigint.cpp and by the kernel's
// differential tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace nonrep::crypto::mont {

using Limb = std::uint64_t;

/// Template argument selecting the runtime-width instantiation.
inline constexpr std::size_t kRuntimeWidth = 0;

// Unroll hint for the limb loops: fully unrolled at 4 and 8 limbs, eight
// at a time beyond (full unrolling of the 16- and 32-limb loops measured
// slower than this).
#if defined(__clang__)
#define NONREP_MONT_UNROLL _Pragma("unroll 8")
#elif defined(__GNUC__)
#define NONREP_MONT_UNROLL _Pragma("GCC unroll 8")
#else
#define NONREP_MONT_UNROLL
#endif

// ---- 64x64 -> 128 multiply-accumulate primitives ----
//
// mul_add returns lo/hi of a*b + c + d, which cannot overflow 128 bits since
// (2^64-1)^2 + 2*(2^64-1) = 2^128 - 1.

#if defined(__SIZEOF_INT128__)

inline Limb mul_add(Limb a, Limb b, Limb c, Limb d, Limb& hi) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b + c + d;
  hi = static_cast<Limb>(t >> 64);
  return static_cast<Limb>(t);
}

#else  // portable mulhi fallback via 32-bit halves

inline Limb mul_add(Limb a, Limb b, Limb c, Limb d, Limb& hi) {
  const Limb a_lo = a & 0xffffffffu, a_hi = a >> 32;
  const Limb b_lo = b & 0xffffffffu, b_hi = b >> 32;
  const Limb ll = a_lo * b_lo;
  const Limb lh = a_lo * b_hi;
  const Limb hl = a_hi * b_lo;
  const Limb hh = a_hi * b_hi;
  // The sum of three 32-bit-ish terms is at most 3*(2^32-1): fits.
  const Limb cross = (ll >> 32) + (lh & 0xffffffffu) + (hl & 0xffffffffu);
  const Limb lo = (cross << 32) | (ll & 0xffffffffu);
  Limb carry = hh + (lh >> 32) + (hl >> 32) + (cross >> 32);
  const Limb lo2 = lo + c;
  carry += lo2 < lo ? 1u : 0u;
  const Limb lo3 = lo2 + d;
  carry += lo3 < lo2 ? 1u : 0u;
  hi = carry;
  return lo3;
}

#endif

/// a + b + carry; carry in and out.
inline Limb add_carry(Limb a, Limb b, Limb& carry) {
  const Limb s1 = a + b;
  const Limb c1 = s1 < a ? 1u : 0u;
  const Limb s2 = s1 + carry;
  carry = c1 + (s2 < s1 ? 1u : 0u);
  return s2;
}

/// a - b - borrow; borrow in and out.
inline Limb sub_borrow(Limb a, Limb b, Limb& borrow) {
  const Limb d1 = a - b;
  const Limb b1 = a < b ? 1u : 0u;
  const Limb d2 = d1 - borrow;
  borrow = b1 + (d1 < borrow ? 1u : 0u);
  return d2;
}

/// -n0^{-1} mod 2^64 for odd n0, by Newton iteration. The seed x = n0 is
/// correct to 3 bits (n0*n0 == 1 mod 8); each step doubles the precision,
/// so five steps reach 96 >= 64 bits (six for margin).
inline Limb neg_inverse(Limb n0) {
  Limb x = n0;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return ~x + 1;
}

/// Read-only view of an odd modulus and its constants, R = 2^(64k).
struct Modulus {
  const Limb* n;    // k limbs, top limb non-zero
  const Limb* r2;   // R^2 mod n, k limbs
  const Limb* one;  // R mod n, k limbs
  Limb n0_inv;      // -n^{-1} mod 2^64
  std::size_t k;
};

template <std::size_t K>
inline std::size_t width(const Modulus& m) {
  if constexpr (K == kRuntimeWidth) {
    return m.k;
  } else {
    return K;
  }
}

/// Scratch limbs mul(), add_mod() and from_mont() need.
inline constexpr std::size_t mul_scratch(std::size_t k) { return k + 1; }

/// Scratch limbs exp() needs: mul scratch, two k-limb temporaries and the
/// 16-entry window table.
inline constexpr std::size_t exp_scratch(std::size_t k) { return mul_scratch(k) + 18 * k; }

/// out = t mod n for t < 2n held in k+1 limbs. The subtraction of n always
/// runs; a mask, not a branch, picks t or t - n. out must not alias t.
template <std::size_t K>
inline void reduce_once(const Modulus& m, Limb* out, const Limb* t) {
  const std::size_t k = width<K>(m);
  Limb borrow = 0;
  NONREP_MONT_UNROLL
  for (std::size_t j = 0; j < k; ++j) out[j] = sub_borrow(t[j], m.n[j], borrow);
  // t < n exactly when t[k] == 0 and the k-limb subtraction borrowed.
  const Limb mask = Limb{0} - (borrow & (t[k] ^ 1));
  NONREP_MONT_UNROLL
  for (std::size_t j = 0; j < k; ++j) out[j] = (t[j] & mask) | (out[j] & ~mask);
}

/// out = a*b*R^{-1} mod n, fully reduced. CIOS with the multiply and reduce
/// inner loops fused into one pass. Requires a < R and b < n, which keeps
/// the running sum below 2n (k+1 limbs). out may alias a or b; scratch is
/// mul_scratch(k) limbs. Kept out of line: one unrolled copy per width
/// instead of one at every call site (inlined, the callers grew the library
/// text by ~230 KB and ran no faster).
template <std::size_t K>
[[gnu::noinline]] void mul(const Modulus& m, Limb* out, const Limb* a, const Limb* b,
                           Limb* scratch) {
  const std::size_t k = width<K>(m);
  // Fixed widths accumulate in a local array, which the compiler knows
  // aliases nothing and can keep in registers; the runtime width uses the
  // caller's scratch.
  Limb local[K + 1] = {};
  Limb* const t = K == kRuntimeWidth ? scratch : local;
  NONREP_MONT_UNROLL
  for (std::size_t j = 0; j <= k; ++j) t[j] = 0;
  NONREP_MONT_UNROLL
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    Limb c1 = 0, c2 = 0;
    const Limb u = mul_add(ai, b[0], t[0], 0, c1);
    const Limb q = u * m.n0_inv;
    (void)mul_add(q, m.n[0], u, 0, c2);  // low limb cancels to zero
    NONREP_MONT_UNROLL
    for (std::size_t j = 1; j < k; ++j) {
      const Limb s = mul_add(ai, b[j], t[j], c1, c1);
      t[j - 1] = mul_add(q, m.n[j], s, c2, c2);
    }
    const Limb s = t[k] + c1;
    const Limb s2 = s + c2;
    t[k - 1] = s2;
    t[k] = (s < c1 ? 1u : 0u) + (s2 < c2 ? 1u : 0u);
  }
  reduce_once<K>(m, out, t);
}

/// out = (x + y) mod n for x, y < n. out may alias x or y; t is
/// mul_scratch(k) limbs.
template <std::size_t K>
inline void add_mod(const Modulus& m, Limb* out, const Limb* x, const Limb* y, Limb* t) {
  const std::size_t k = width<K>(m);
  Limb carry = 0;
  for (std::size_t j = 0; j < k; ++j) t[j] = add_carry(x[j], y[j], carry);
  t[k] = carry;
  reduce_once<K>(m, out, t);
}

/// out = x*R mod n for any x of xn limbs, without a division: Horner over
/// k-limb chunks from the top, acc*R + chunk*R, each a multiply by R^2.
/// tmp is k limbs, t mul_scratch(k); out must not alias x, tmp or t.
template <std::size_t K>
inline void to_mont(const Modulus& m, Limb* out, const Limb* x, std::size_t xn, Limb* tmp,
                    Limb* t) {
  const std::size_t k = width<K>(m);
  const auto load_chunk = [&](Limb* dst, std::size_t c) {
    for (std::size_t j = 0; j < k; ++j) dst[j] = c * k + j < xn ? x[c * k + j] : 0;
  };
  const std::size_t chunks = xn == 0 ? 1 : (xn + k - 1) / k;
  load_chunk(out, chunks - 1);
  mul<K>(m, out, out, m.r2, t);
  for (std::size_t c = chunks - 1; c-- > 0;) {
    mul<K>(m, out, out, m.r2, t);
    load_chunk(tmp, c);
    mul<K>(m, tmp, tmp, m.r2, t);
    add_mod<K>(m, out, out, tmp, t);
  }
}

/// out = x*R^{-1} mod n for x < R. out may alias x; tmp is k limbs, t
/// mul_scratch(k).
template <std::size_t K>
inline void from_mont(const Modulus& m, Limb* out, const Limb* x, Limb* tmp, Limb* t) {
  const std::size_t k = width<K>(m);
  tmp[0] = 1;
  for (std::size_t j = 1; j < k; ++j) tmp[j] = 0;
  mul<K>(m, out, x, tmp, t);
}

inline bool exp_bit(const Limb* e, std::size_t i) { return (e[i / 64] >> (i % 64)) & 1u; }

/// out = x^e mod n, normal domain in and out, for any x of xn limbs and the
/// e_bits-bit exponent e (little-endian limbs). Exponents of at most 32 bits
/// (e = 65537 on verify) take a plain square-and-multiply ladder; longer
/// ones a fixed 4-bit window over a 16-entry table. ws is exp_scratch(k)
/// limbs and holds every intermediate.
template <std::size_t K>
inline void exp(const Modulus& m, Limb* out, const Limb* x, std::size_t xn, const Limb* e,
                std::size_t e_bits, Limb* ws) {
  const std::size_t k = width<K>(m);
  Limb* t = ws;
  Limb* tmp = t + mul_scratch(k);
  Limb* acc = tmp + k;
  Limb* table = acc + k;  // table[w] = x^w in Montgomery form, w = 1..15
  const auto entry = [&](std::size_t w) { return table + w * k; };
  const auto copy = [&](Limb* dst, const Limb* src) {
    for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  };

  if (e_bits == 0) {
    copy(acc, m.one);  // x^0 = 1
  } else {
    to_mont<K>(m, entry(1), x, xn, tmp, t);
    if (e_bits <= 32) {
      // Short exponents don't amortize the window table: about half the
      // multiplies of the windowed path there.
      copy(acc, entry(1));
      for (std::size_t i = e_bits - 1; i-- > 0;) {
        mul<K>(m, acc, acc, acc, t);
        if (exp_bit(e, i)) mul<K>(m, acc, acc, entry(1), t);
      }
    } else {
      for (std::size_t w = 2; w < 16; ++w) mul<K>(m, entry(w), entry(w - 1), entry(1), t);
      const std::size_t windows = (e_bits + 3) / 4;
      for (std::size_t w = windows; w-- > 0;) {
        std::size_t win = 0;
        for (std::size_t j = 4; j-- > 0;) {
          const std::size_t i = w * 4 + j;
          win = (win << 1) | (i < e_bits && exp_bit(e, i) ? 1u : 0u);
        }
        if (w + 1 == windows) {
          copy(acc, entry(win));  // the top window holds the msb: win != 0
          continue;
        }
        for (int s = 0; s < 4; ++s) mul<K>(m, acc, acc, acc, t);
        if (win != 0) mul<K>(m, acc, acc, entry(win), t);
      }
    }
  }
  from_mont<K>(m, out, acc, tmp, t);
}

}  // namespace nonrep::crypto::mont

#undef NONREP_MONT_UNROLL
