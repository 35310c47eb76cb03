#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <type_traits>

#include "crypto/mont_kernel.hpp"

namespace nonrep::crypto {

namespace {

// ---- 32-bit digit views used by the long-division routine ----

std::vector<std::uint32_t> to_digits(const std::vector<std::uint64_t>& limbs) {
  std::vector<std::uint32_t> d(limbs.size() * 2);
  for (std::size_t i = 0; i < limbs.size(); ++i) {
    d[2 * i] = static_cast<std::uint32_t>(limbs[i]);
    d[2 * i + 1] = static_cast<std::uint32_t>(limbs[i] >> 32);
  }
  while (!d.empty() && d.back() == 0) d.pop_back();
  return d;
}

}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes_be(BytesView b) {
  BigUint out;
  out.limbs_.assign((b.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    const std::size_t byte_from_lsb = b.size() - 1 - i;
    out.limbs_[byte_from_lsb / 8] |=
        static_cast<std::uint64_t>(b[i]) << (8 * (byte_from_lsb % 8));
  }
  out.trim();
  return out;
}

Bytes BigUint::to_bytes_be(std::size_t size) const {
  Bytes out(size, 0);
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t byte_from_lsb = i;
    const std::size_t limb = byte_from_lsb / 8;
    if (limb < limbs_.size()) {
      out[size - 1 - i] =
          static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_from_lsb % 8)));
    }
  }
  return out;
}

Bytes BigUint::to_bytes_be() const {
  const std::size_t bits = bit_length();
  return to_bytes_be((bits + 7) / 8);
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 64 -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1u;
}

int BigUint::cmp(const BigUint& a, const BigUint& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = i < a.limbs_.size() ? a.limbs_[i] : 0;
    const std::uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    out.limbs_[i] = mont::add_carry(ai, bi, carry);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  // Internal invariant, kept as an assert (PR 3 audit): every library call
  // site orders its operands first; no wire-decoded value reaches sub()
  // unchecked.
  assert(cmp(a, b) >= 0);
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const std::uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    out.limbs_[i] = mont::sub_borrow(a.limbs_[i], bi, borrow);
  }
  out.trim();
  return out;
}

BigUint BigUint::mul(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      out.limbs_[i + j] = mont::mul_add(ai, b.limbs_[j], out.limbs_[i + j], carry, carry);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigUint BigUint::shl(std::size_t bits) const {
  if (is_zero()) return BigUint{};
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::shr(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigUint{};
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::div_small(const BigUint& a, std::uint32_t divisor, std::uint32_t& remainder) {
  // Internal invariant, kept as an assert (PR 3 audit): divmod routes a
  // zero modulus away before delegating here, and direct callers pass
  // constants.
  assert(divisor != 0);
  BigUint out;
  out.limbs_.assign(a.limbs_.size(), 0);
  std::uint64_t rem = 0;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    // Process the 64-bit limb as two 32-bit halves so the running value
    // (rem << 32 | half) always fits in 64 bits.
    const std::uint64_t hi_in = (rem << 32) | (a.limbs_[i] >> 32);
    const std::uint64_t q_hi = hi_in / divisor;
    rem = hi_in % divisor;
    const std::uint64_t lo_in = (rem << 32) | (a.limbs_[i] & 0xffffffffu);
    const std::uint64_t q_lo = lo_in / divisor;
    rem = lo_in % divisor;
    out.limbs_[i] = (q_hi << 32) | q_lo;
  }
  remainder = static_cast<std::uint32_t>(rem);
  out.trim();
  return out;
}

std::uint32_t BigUint::mod_small(const BigUint& a, std::uint32_t divisor) {
  // div_small's remainder recurrence without the quotient: key generation
  // runs this for every trial-division prime of every candidate.
  assert(divisor != 0);
  std::uint64_t rem = 0;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | (a.limbs_[i] >> 32)) % divisor;
    rem = ((rem << 32) | (a.limbs_[i] & 0xffffffffu)) % divisor;
  }
  return static_cast<std::uint32_t>(rem);
}

// Knuth algorithm D over 32-bit digits (Hacker's Delight divmnu).
BigUint BigUint::divmod(const BigUint& a, const BigUint& m, BigUint& rem) {
  // Internal invariant, kept as an assert (PR 3 audit): hostile input is
  // screened at the wire boundary — RsaPublicKey/RsaPrivateKey::decode
  // reject zero or even moduli before any arithmetic runs.
  assert(!m.is_zero());
  if (cmp(a, m) < 0) {
    rem = a;
    return BigUint{};
  }
  const std::vector<std::uint32_t> v_raw = to_digits(m.limbs_);
  if (v_raw.size() == 1) {
    std::uint32_t r = 0;
    BigUint q = div_small(a, v_raw[0], r);
    rem = BigUint(r);
    return q;
  }
  std::vector<std::uint32_t> u = to_digits(a.limbs_);
  const std::size_t n = v_raw.size();
  const std::size_t mq = u.size() - n;  // quotient has mq+1 digits

  // Normalize so the divisor's top digit has its high bit set.
  const int s = std::countl_zero(v_raw.back());
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = n; i-- > 0;) {
    v[i] = (v_raw[i] << s);
    if (s != 0 && i > 0) v[i] |= static_cast<std::uint32_t>(v_raw[i - 1] >> (32 - s));
  }
  u.push_back(0);
  if (s != 0) {
    for (std::size_t i = u.size(); i-- > 0;) {
      u[i] = (u[i] << s);
      if (i > 0) u[i] |= static_cast<std::uint32_t>(u[i - 1] >> (32 - s));
    }
  }

  constexpr std::uint64_t kBase = std::uint64_t{1} << 32;
  std::vector<std::uint32_t> q(mq + 1, 0);
  for (std::size_t j = mq + 1; j-- > 0;) {
    const std::uint64_t num = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = num / v[n - 1];
    std::uint64_t rhat = num % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    std::uint64_t carry = 0;
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      const std::int64_t t =
          static_cast<std::int64_t>(u[i + j]) -
          static_cast<std::int64_t>(static_cast<std::uint32_t>(p)) - borrow;
      u[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add the divisor back.
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t t2 =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<std::uint32_t>(t2);
        carry2 = t2 >> 32;
      }
      u[j + n] += static_cast<std::uint32_t>(carry2);
    }
    q[j] = static_cast<std::uint32_t>(qhat);
  }

  // Denormalize the remainder (u[0..n)) and pack digits back into limbs.
  std::vector<std::uint32_t> r(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = u[i] >> s;
    if (s != 0 && i + 1 < u.size()) {
      r[i] |= static_cast<std::uint32_t>(static_cast<std::uint64_t>(u[i + 1]) << (32 - s));
    }
  }

  const auto pack = [](const std::vector<std::uint32_t>& digits) {
    BigUint out;
    out.limbs_.assign((digits.size() + 1) / 2, 0);
    for (std::size_t i = 0; i < digits.size(); ++i) {
      out.limbs_[i / 2] |= static_cast<std::uint64_t>(digits[i]) << (32 * (i % 2));
    }
    out.trim();
    return out;
  };
  rem = pack(r);
  return pack(q);
}

BigUint BigUint::mod(const BigUint& a, const BigUint& m) {
  BigUint rem;
  (void)divmod(a, m, rem);
  return rem;
}

BigUint BigUint::mod_exp(const BigUint& a, const BigUint& e, const BigUint& m) {
  Montgomery ctx(m);
  return ctx.exp(a, e);
}

std::string BigUint::to_hex_string() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      const unsigned d = (limbs_[i] >> (4 * nib)) & 0xf;
      if (leading && d == 0) continue;
      leading = false;
      out.push_back(kDigits[d]);
    }
  }
  return out;
}

// ---- Montgomery ----

namespace {

// Runs f with the kernel width for a k-limb modulus: a compile-time
// constant for the common RSA sizes, the runtime instantiation otherwise.
template <class F>
void with_width(std::size_t k, F&& f) {
  switch (k) {
    case 4: f(std::integral_constant<std::size_t, 4>{}); return;
    case 8: f(std::integral_constant<std::size_t, 8>{}); return;
    case 16: f(std::integral_constant<std::size_t, 16>{}); return;
    case 32: f(std::integral_constant<std::size_t, 32>{}); return;
    default: f(std::integral_constant<std::size_t, mont::kRuntimeWidth>{}); return;
  }
}

// x zero-padded to k limbs; x must fit.
void load(std::uint64_t* dst, const std::vector<std::uint64_t>& x, std::size_t k) {
  std::copy(x.begin(), x.end(), dst);
  std::fill(dst + x.size(), dst + k, 0);
}

}  // namespace

Montgomery::Montgomery(const BigUint& modulus) : n_(modulus) {
  // Internal invariant, kept as an assert (PR 3 audit): contexts are built
  // only for RSA moduli/primes that the decode layer has already verified
  // to be odd (an even n has no inverse mod 2^64).
  assert(n_.is_odd());
  k_ = n_.limbs_.size();
  n0_inv_ = mont::neg_inverse(n_.limbs_[0]);

  // R = 2^(64k). One long division gives R mod n; one wide multiply plus a
  // second reduction gives R^2 mod n.
  one_mont_ = BigUint::mod(BigUint(1).shl(64 * k_), n_);
  const BigUint r2 = BigUint::mod(BigUint::mul(one_mont_, one_mont_), n_);
  consts_.resize(2 * k_);
  load(consts_.data(), r2.limbs_, k_);
  load(consts_.data() + k_, one_mont_.limbs_, k_);
}

mont::Modulus Montgomery::view() const noexcept {
  return mont::Modulus{n_.limbs_.data(), consts_.data(), consts_.data() + k_, n0_inv_, k_};
}

BigUint Montgomery::mul(const BigUint& a_mont, const BigUint& b_mont) const {
  if (a_mont >= n_) return mul(BigUint::mod(a_mont, n_), b_mont);
  if (b_mont >= n_) return mul(a_mont, BigUint::mod(b_mont, n_));
  std::vector<std::uint64_t> ws(2 * k_ + mont::mul_scratch(k_));
  std::uint64_t* a = ws.data();
  std::uint64_t* b = a + k_;
  load(a, a_mont.limbs_, k_);
  load(b, b_mont.limbs_, k_);
  BigUint out;
  out.limbs_.resize(k_);
  with_width(k_, [&](auto w) {
    mont::mul<decltype(w)::value>(view(), out.limbs_.data(), a, b, b + k_);
  });
  out.trim();
  return out;
}

BigUint Montgomery::to_mont(const BigUint& x) const {
  std::vector<std::uint64_t> ws(k_ + mont::mul_scratch(k_));
  BigUint out;
  out.limbs_.resize(k_);
  with_width(k_, [&](auto w) {
    mont::to_mont<decltype(w)::value>(view(), out.limbs_.data(), x.limbs_.data(),
                                      x.limbs_.size(), ws.data(), ws.data() + k_);
  });
  out.trim();
  return out;
}

BigUint Montgomery::from_mont(const BigUint& x) const {
  if (x >= n_) return from_mont(BigUint::mod(x, n_));
  std::vector<std::uint64_t> ws(k_ + mont::mul_scratch(k_));
  BigUint out;
  out.limbs_.resize(k_);
  load(out.limbs_.data(), x.limbs_, k_);
  with_width(k_, [&](auto w) {
    mont::from_mont<decltype(w)::value>(view(), out.limbs_.data(), out.limbs_.data(),
                                        ws.data(), ws.data() + k_);
  });
  out.trim();
  return out;
}

BigUint Montgomery::exp(const BigUint& a, const BigUint& e) const {
  std::vector<std::uint64_t> ws(mont::exp_scratch(k_));
  BigUint out;
  out.limbs_.resize(k_);
  with_width(k_, [&](auto w) {
    mont::exp<decltype(w)::value>(view(), out.limbs_.data(), a.limbs_.data(), a.limbs_.size(),
                                  e.limbs_.data(), e.bit_length(), ws.data());
  });
  out.trim();
  return out;
}

}  // namespace nonrep::crypto
