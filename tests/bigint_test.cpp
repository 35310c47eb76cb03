#include <gtest/gtest.h>

#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/rsa.hpp"
#include "util/hex.hpp"

namespace nonrep::crypto {
namespace {

BigUint from_hex_str(const std::string& s) {
  auto b = from_hex(s.size() % 2 ? "0" + s : s);
  return BigUint::from_bytes_be(*b);
}

TEST(BigUint, ZeroProperties) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex_string(), "0");
}

TEST(BigUint, FromU64) {
  BigUint v(0x123456789abcdef0ull);
  EXPECT_EQ(v.to_hex_string(), "123456789abcdef0");
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, BytesRoundTrip) {
  const Bytes raw = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigUint v = BigUint::from_bytes_be(raw);
  EXPECT_EQ(v.to_bytes_be(5), raw);
  EXPECT_EQ(v.to_hex_string(), "102030405");
}

TEST(BigUint, LeadingZerosTrimmed) {
  const Bytes raw = {0x00, 0x00, 0x01};
  BigUint v = BigUint::from_bytes_be(raw);
  EXPECT_EQ(v, BigUint(1));
  EXPECT_EQ(v.to_bytes_be(3), raw);
}

TEST(BigUint, Compare) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_GT(BigUint(0x100000000ull), BigUint(0xffffffffull));
  EXPECT_EQ(BigUint(7), BigUint(7));
}

TEST(BigUint, AddCarries) {
  BigUint a(0xffffffffull);
  EXPECT_EQ(BigUint::add(a, BigUint(1)), BigUint(0x100000000ull));
  EXPECT_EQ(BigUint::add(BigUint{}, BigUint{}), BigUint{});
}

TEST(BigUint, SubBorrows) {
  BigUint a(0x100000000ull);
  EXPECT_EQ(BigUint::sub(a, BigUint(1)), BigUint(0xffffffffull));
  EXPECT_EQ(BigUint::sub(a, a), BigUint{});
}

TEST(BigUint, MulSchoolbook) {
  EXPECT_EQ(BigUint::mul(BigUint(0xffffffffull), BigUint(0xffffffffull)),
            BigUint(0xfffffffe00000001ull));
  EXPECT_EQ(BigUint::mul(BigUint(0), BigUint(12345)), BigUint{});
}

TEST(BigUint, MulLarge) {
  // (2^96)(2^96) = 2^192
  BigUint a = BigUint(1).shl(96);
  BigUint prod = BigUint::mul(a, a);
  EXPECT_EQ(prod.bit_length(), 193u);
  EXPECT_TRUE(prod.bit(192));
}

TEST(BigUint, Shifts) {
  BigUint v(1);
  EXPECT_EQ(v.shl(40).shr(40), v);
  EXPECT_EQ(BigUint(0xff).shl(4).to_hex_string(), "ff0");
  EXPECT_EQ(BigUint(0xff).shr(4), BigUint(0xf));
  EXPECT_EQ(BigUint(1).shr(1), BigUint{});
}

TEST(BigUint, DivSmall) {
  std::uint32_t rem = 0;
  BigUint q = BigUint::div_small(BigUint(1000001), 10, rem);
  EXPECT_EQ(q, BigUint(100000));
  EXPECT_EQ(rem, 1u);
}

TEST(BigUint, ModSmall) {
  EXPECT_EQ(BigUint::mod_small(BigUint(65537ull * 3 + 5), 65537), 5u);
}

TEST(BigUint, Mod) {
  EXPECT_EQ(BigUint::mod(BigUint(100), BigUint(7)), BigUint(2));
  EXPECT_EQ(BigUint::mod(BigUint(5), BigUint(7)), BigUint(5));
  // 2^128 mod (2^64 - 59) — check against known arithmetic:
  BigUint m = BigUint::sub(BigUint(1).shl(64), BigUint(59));
  BigUint r = BigUint::mod(BigUint(1).shl(128), m);
  // 2^128 = (2^64-59)(2^64+59) + 59^2 => r = 3481
  EXPECT_EQ(r, BigUint(3481));
}

TEST(BigUint, ModExpSmallCases) {
  // 5^3 mod 13 = 125 mod 13 = 8
  EXPECT_EQ(BigUint::mod_exp(BigUint(5), BigUint(3), BigUint(13)), BigUint(8));
  // Fermat: 2^(p-1) = 1 mod p for prime p = 101
  EXPECT_EQ(BigUint::mod_exp(BigUint(2), BigUint(100), BigUint(101)), BigUint(1));
  // a^0 = 1
  EXPECT_EQ(BigUint::mod_exp(BigUint(7), BigUint(0), BigUint(11)), BigUint(1));
}

TEST(BigUint, ModExpLargeKnownValue) {
  // 3^(2^64) mod (2^89-1, prime): verify via repeated squaring both ways.
  BigUint m = BigUint::sub(BigUint(1).shl(89), BigUint(1));
  BigUint direct = BigUint::mod_exp(BigUint(3), BigUint(1).shl(64), m);
  BigUint square = BigUint(3);
  for (int i = 0; i < 64; ++i) square = BigUint::mod(BigUint::mul(square, square), m);
  EXPECT_EQ(direct, square);
}

TEST(Montgomery, RoundTripDomain) {
  BigUint n = from_hex_str("c7f1a3");  // odd
  Montgomery ctx(n);
  BigUint x(123456);
  EXPECT_EQ(ctx.from_mont(ctx.to_mont(x)), x);
}

TEST(Montgomery, MulMatchesNaive) {
  BigUint n = from_hex_str("10000000000000001");  // 2^64+1, odd
  Montgomery ctx(n);
  BigUint a(0xdeadbeefcafebabeull);
  BigUint b(0x123456789abcdef1ull);
  BigUint expected = BigUint::mod(BigUint::mul(a, b), n);
  BigUint got = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
  EXPECT_EQ(got, expected);
}

class ModExpProperty : public ::testing::TestWithParam<int> {};

TEST_P(ModExpProperty, MatchesNaiveModMul) {
  Drbg rng(to_bytes("modexp-prop-" + std::to_string(GetParam())));
  // Random odd modulus of 96..160 bits, random base and small exponent.
  Bytes mod_bytes = rng.generate(12 + GetParam() % 9);
  mod_bytes[0] |= 0x80;
  mod_bytes.back() |= 0x01;
  BigUint m = BigUint::from_bytes_be(mod_bytes);
  BigUint a = BigUint::mod(BigUint::from_bytes_be(rng.generate(8)), m);
  const std::uint32_t e = static_cast<std::uint32_t>(rng.uniform(64)) + 1;

  BigUint expected(1);
  for (std::uint32_t i = 0; i < e; ++i) expected = BigUint::mod(BigUint::mul(expected, a), m);
  EXPECT_EQ(BigUint::mod_exp(a, BigUint(e), m), expected) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomCases, ModExpProperty, ::testing::Range(0, 24));

class AddSubProperty : public ::testing::TestWithParam<int> {};

TEST_P(AddSubProperty, SubUndoesAdd) {
  Drbg rng(to_bytes("addsub-" + std::to_string(GetParam())));
  BigUint a = BigUint::from_bytes_be(rng.generate(1 + GetParam() % 40));
  BigUint b = BigUint::from_bytes_be(rng.generate(1 + (GetParam() * 3) % 40));
  EXPECT_EQ(BigUint::sub(BigUint::add(a, b), b), a);
  EXPECT_EQ(BigUint::sub(BigUint::add(a, b), a), b);
}

INSTANTIATE_TEST_SUITE_P(RandomCases, AddSubProperty, ::testing::Range(0, 20));

class MulDivProperty : public ::testing::TestWithParam<int> {};

TEST_P(MulDivProperty, DivSmallUndoesMulSmall) {
  Drbg rng(to_bytes("muldiv-" + std::to_string(GetParam())));
  BigUint a = BigUint::from_bytes_be(rng.generate(1 + GetParam() % 32));
  const std::uint32_t d = static_cast<std::uint32_t>(rng.uniform(0xfffffffeull)) + 1;
  std::uint32_t rem = 0xcdcdcdcd;
  BigUint q = BigUint::div_small(BigUint::mul(a, BigUint(d)), d, rem);
  EXPECT_EQ(q, a);
  EXPECT_EQ(rem, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomCases, MulDivProperty, ::testing::Range(0, 20));

// ---- Differential suite: 64-bit limb ops vs byte-at-a-time references ----
//
// The reference implementations work digit-by-digit in base 256 on
// big-endian byte strings — slow, obviously correct, and sharing no code
// with the limb-based fast paths they check.

Bytes ref_trim(Bytes v) {
  std::size_t lead = 0;
  while (lead < v.size() && v[lead] == 0) ++lead;
  return Bytes(v.begin() + static_cast<std::ptrdiff_t>(lead), v.end());
}

Bytes ref_add(BytesView a, BytesView b) {
  Bytes out(std::max(a.size(), b.size()) + 1, 0);
  int carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    int sum = carry;
    if (i < a.size()) sum += a[a.size() - 1 - i];
    if (i < b.size()) sum += b[b.size() - 1 - i];
    out[out.size() - 1 - i] = static_cast<std::uint8_t>(sum & 0xff);
    carry = sum >> 8;
  }
  return ref_trim(out);
}

Bytes ref_sub(BytesView a, BytesView b) {  // requires a >= b
  Bytes out(a.size(), 0);
  int borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    int diff = a[a.size() - 1 - i] - borrow;
    if (i < b.size()) diff -= b[b.size() - 1 - i];
    borrow = diff < 0 ? 1 : 0;
    out[out.size() - 1 - i] = static_cast<std::uint8_t>(diff + (borrow << 8));
  }
  return ref_trim(out);
}

Bytes ref_mul(BytesView a, BytesView b) {
  Bytes out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    int carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t k = out.size() - 1 - i - j;
      const int cur = out[k] + a[a.size() - 1 - i] * b[b.size() - 1 - j] + carry;
      out[k] = static_cast<std::uint8_t>(cur & 0xff);
      carry = cur >> 8;
    }
    std::size_t k = out.size() - 1 - i - b.size();
    while (carry != 0) {
      const int cur = out[k] + carry;
      out[k] = static_cast<std::uint8_t>(cur & 0xff);
      carry = cur >> 8;
      if (k == 0) break;
      --k;
    }
  }
  return ref_trim(out);
}

// Random byte string whose length sweeps across limb boundaries.
Bytes random_operand(Drbg& rng, std::size_t max_len) {
  const std::size_t len = rng.uniform(max_len + 1);
  return rng.generate(len);
}

class BigUintDifferential : public ::testing::TestWithParam<int> {};

TEST_P(BigUintDifferential, AddMatchesReference) {
  Drbg rng(to_bytes("diff-add-" + std::to_string(GetParam())));
  const Bytes a = random_operand(rng, 70), b = random_operand(rng, 70);
  EXPECT_EQ(BigUint::add(BigUint::from_bytes_be(a), BigUint::from_bytes_be(b)).to_bytes_be(),
            ref_add(a, b));
}

TEST_P(BigUintDifferential, SubMatchesReference) {
  Drbg rng(to_bytes("diff-sub-" + std::to_string(GetParam())));
  Bytes a = random_operand(rng, 70), b = random_operand(rng, 70);
  BigUint ba = BigUint::from_bytes_be(a), bb = BigUint::from_bytes_be(b);
  if (ba < bb) {
    std::swap(a, b);
    std::swap(ba, bb);
  }
  EXPECT_EQ(BigUint::sub(ba, bb).to_bytes_be(), ref_sub(a, b));
}

TEST_P(BigUintDifferential, MulMatchesReference) {
  Drbg rng(to_bytes("diff-mul-" + std::to_string(GetParam())));
  const Bytes a = random_operand(rng, 48), b = random_operand(rng, 48);
  EXPECT_EQ(BigUint::mul(BigUint::from_bytes_be(a), BigUint::from_bytes_be(b)).to_bytes_be(),
            ref_mul(a, b));
}

TEST_P(BigUintDifferential, DivmodReconstructsDividend) {
  Drbg rng(to_bytes("diff-div-" + std::to_string(GetParam())));
  const Bytes a = rng.generate(1 + rng.uniform(80));
  Bytes m_raw = rng.generate(1 + rng.uniform(40));
  m_raw[0] |= 0x01;  // non-zero (low byte of the top digit suffices)
  const BigUint ba = BigUint::from_bytes_be(a);
  const BigUint bm = BigUint::from_bytes_be(m_raw);
  BigUint rem;
  const BigUint q = BigUint::divmod(ba, bm, rem);
  EXPECT_LT(BigUint::cmp(rem, bm), 0);
  // q*m + rem == a, recombined with the reference arithmetic.
  EXPECT_EQ(ref_add(ref_mul(q.to_bytes_be(), bm.to_bytes_be()), rem.to_bytes_be()),
            ref_trim(Bytes(a.begin(), a.end())));
}

TEST_P(BigUintDifferential, ShiftsMatchMulByPowerOfTwo) {
  Drbg rng(to_bytes("diff-shift-" + std::to_string(GetParam())));
  const Bytes a = rng.generate(1 + rng.uniform(40));
  const std::size_t s = rng.uniform(130);
  const BigUint ba = BigUint::from_bytes_be(a);
  // 2^s as a reference byte string: 1 followed by s zero bits.
  Bytes pow2(s / 8 + 1, 0);
  pow2[0] = static_cast<std::uint8_t>(1u << (s % 8));
  EXPECT_EQ(ba.shl(s).to_bytes_be(), ref_mul(a, pow2));
  EXPECT_EQ(ba.shl(s).shr(s), ba);
}

INSTANTIATE_TEST_SUITE_P(RandomCases, BigUintDifferential, ::testing::Range(0, 40));

TEST(BigUintDivmod, EdgeCases) {
  BigUint rem;
  // Dividend smaller than divisor.
  EXPECT_EQ(BigUint::divmod(BigUint(5), BigUint(9), rem), BigUint{});
  EXPECT_EQ(rem, BigUint(5));
  // Exact division, multi-limb.
  const BigUint m = BigUint::from_bytes_be(Bytes{0x01, 0x23, 0x45, 0x67, 0x89,
                                                 0xab, 0xcd, 0xef, 0x01, 0x02});
  const BigUint prod = BigUint::mul(m, BigUint(0xfedcba9876543210ull));
  EXPECT_EQ(BigUint::divmod(prod, m, rem), BigUint(0xfedcba9876543210ull));
  EXPECT_TRUE(rem.is_zero());
  // Divisor of exactly one 64-bit limb (exercises the digit fast path edge).
  EXPECT_EQ(BigUint::divmod(BigUint(1).shl(100), BigUint(1).shl(64), rem),
            BigUint(1).shl(36));
  EXPECT_TRUE(rem.is_zero());
}

TEST(Primality, KnownPrimes) {
  Drbg rng(to_bytes("prime-test"));
  EXPECT_TRUE(is_probable_prime(BigUint(2), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(3), rng));
  EXPECT_TRUE(is_probable_prime(BigUint(65537), rng));
  EXPECT_TRUE(is_probable_prime(from_hex_str("1fffffffffffffff"), rng));  // 2^61-1 Mersenne
}

TEST(Primality, KnownComposites) {
  Drbg rng(to_bytes("prime-test-2"));
  EXPECT_FALSE(is_probable_prime(BigUint(1), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(4), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(65537ull * 3), rng));
  // Carmichael number 561 = 3*11*17 must be rejected by Miller-Rabin.
  EXPECT_FALSE(is_probable_prime(BigUint(561), rng));
  EXPECT_FALSE(is_probable_prime(BigUint(41041), rng));  // Carmichael
}

// ---- Montgomery kernel: per-width differential and edge cases ----
//
// The kernel (mont_kernel.hpp) is checked against naive BigUint::mul + mod,
// against its own runtime-width instantiation on the same modulus, and
// against the pre-subtraction CIOS value recomputed from the REDC
// definition. Constants come from long division, not from Montgomery code.

using mont::Limb;

std::vector<Limb> limbs_of(const BigUint& x, std::size_t k) {
  const Bytes be = x.to_bytes_be(8 * k);
  std::vector<Limb> out(k, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t from_lsb = be.size() - 1 - i;
    out[from_lsb / 8] |= static_cast<Limb>(be[i]) << (8 * (from_lsb % 8));
  }
  return out;
}

BigUint from_limbs(const std::vector<Limb>& v) {
  Bytes be(8 * v.size());
  for (std::size_t i = 0; i < be.size(); ++i) {
    be[be.size() - 1 - i] = static_cast<std::uint8_t>(v[i / 8] >> (8 * (i % 8)));
  }
  return BigUint::from_bytes_be(be);
}

struct RawModulus {
  explicit RawModulus(const BigUint& modulus) : n(modulus), k(modulus.limb_count()) {
    const BigUint r = BigUint(1).shl(64 * k);
    one = BigUint::mod(r, n);
    r2 = BigUint::mod(BigUint::mul(one, one), n);
    n_limbs = limbs_of(n, k);
    r2_limbs = limbs_of(r2, k);
    one_limbs = limbs_of(one, k);
  }
  mont::Modulus view() const {
    return {n_limbs.data(), r2_limbs.data(), one_limbs.data(), mont::neg_inverse(n_limbs[0]), k};
  }

  BigUint n, one, r2;
  std::size_t k;
  std::vector<Limb> n_limbs, r2_limbs, one_limbs;
};

BigUint random_odd_modulus(Drbg& rng, std::size_t limbs) {
  Bytes raw = rng.generate(8 * limbs);
  raw.front() |= 0x80;
  raw.back() |= 0x01;
  return BigUint::from_bytes_be(raw);
}

BigUint random_below(Drbg& rng, const BigUint& n) {
  return BigUint::mod(BigUint::from_bytes_be(rng.generate(8 * n.limb_count() + 8)), n);
}

template <std::size_t K>
BigUint kernel_mul(const RawModulus& m, const BigUint& a, const BigUint& b) {
  const auto al = limbs_of(a, m.k), bl = limbs_of(b, m.k);
  std::vector<Limb> out(m.k), t(mont::mul_scratch(m.k));
  mont::mul<K>(m.view(), out.data(), al.data(), bl.data(), t.data());
  return from_limbs(out);
}

template <std::size_t K>
BigUint kernel_exp(const RawModulus& m, const BigUint& x, const BigUint& e) {
  const auto xl = limbs_of(x, x.limb_count()), el = limbs_of(e, e.limb_count());
  std::vector<Limb> out(m.k), ws(mont::exp_scratch(m.k));
  mont::exp<K>(m.view(), out.data(), xl.data(), xl.size(), el.data(), e.bit_length(), ws.data());
  return from_limbs(out);
}

BigUint naive_exp(const BigUint& base, const BigUint& e, const BigUint& n) {
  const BigUint b = BigUint::mod(base, n);
  BigUint acc = BigUint::mod(BigUint(1), n);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    acc = BigUint::mod(BigUint::mul(acc, acc), n);
    if (e.bit(i)) acc = BigUint::mod(BigUint::mul(acc, b), n);
  }
  return acc;
}

// Fixed width K (or the runtime instantiation) on `limbs`-limb moduli:
// public API, fixed kernel and runtime kernel all agree with naive math.
template <std::size_t K>
void check_width(std::size_t limbs, const std::string& seed) {
  Drbg rng(to_bytes(seed));
  for (int round = 0; round < 6; ++round) {
    const RawModulus m(random_odd_modulus(rng, limbs));
    const Montgomery ctx(m.n);
    const BigUint a = random_below(rng, m.n), b = random_below(rng, m.n);
    EXPECT_EQ(ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b))),
              BigUint::mod(BigUint::mul(a, b), m.n));

    const BigUint am = ctx.to_mont(a), bm = ctx.to_mont(b);
    EXPECT_EQ(am, BigUint::mod(a.shl(64 * limbs), m.n));
    const BigUint fixed = kernel_mul<K>(m, am, bm);
    EXPECT_EQ(fixed, kernel_mul<mont::kRuntimeWidth>(m, am, bm));
    EXPECT_EQ(fixed, ctx.mul(am, bm));

    // Exponent of 40..80 bits: the windowed path.
    const BigUint e = BigUint::from_bytes_be(rng.generate(5 + static_cast<std::size_t>(round)));
    const BigUint want = naive_exp(a, e, m.n);
    EXPECT_EQ(ctx.exp(a, e), want) << "round " << round;
    EXPECT_EQ(kernel_exp<K>(m, a, e), want);
    EXPECT_EQ(kernel_exp<mont::kRuntimeWidth>(m, a, e), want);

    // Bases wider than the modulus reach the Montgomery domain by Horner
    // steps, without a division.
    const BigUint wide = BigUint::from_bytes_be(rng.generate(16 * limbs + 3));
    EXPECT_EQ(ctx.to_mont(wide), BigUint::mod(wide.shl(64 * limbs), m.n));
    EXPECT_EQ(kernel_exp<K>(m, wide, e), naive_exp(wide, e, m.n));
  }
}

TEST(MontKernel, Width4MatchesRuntimeAndNaive) { check_width<4>(4, "mont-width-4"); }
TEST(MontKernel, Width8MatchesRuntimeAndNaive) { check_width<8>(8, "mont-width-8"); }
TEST(MontKernel, Width16MatchesRuntimeAndNaive) { check_width<16>(16, "mont-width-16"); }
TEST(MontKernel, Width32MatchesRuntimeAndNaive) { check_width<32>(32, "mont-width-32"); }
TEST(MontKernel, RuntimeWidth5MatchesNaive) {
  check_width<mont::kRuntimeWidth>(5, "mont-width-5");
}

// -n^{-1} mod R by Newton iteration from 1 (correct to one bit for odd n;
// each step doubles the precision).
BigUint neg_inverse_mod_r(const RawModulus& m) {
  const std::size_t bits = 64 * m.k;
  const BigUint r = BigUint(1).shl(bits);
  BigUint inv(1);
  for (std::size_t precision = 1; precision < bits; precision *= 2) {
    const BigUint nx = BigUint::mod(BigUint::mul(m.n, inv), r);
    inv = BigUint::mod(BigUint::mul(inv, BigUint::sub(BigUint::add(r, BigUint(2)), nx)), r);
  }
  return BigUint::sub(r, inv);
}

// The CIOS value before its final subtraction: t = (a*b + M*n) / R with
// M = a*b*(-n^{-1}) mod R.
BigUint pre_subtract(const RawModulus& m, const BigUint& neg_inv, const BigUint& a,
                     const BigUint& b) {
  const std::size_t bits = 64 * m.k;
  const BigUint r = BigUint(1).shl(bits);
  const BigUint ab = BigUint::mul(a, b);
  const BigUint q = BigUint::mod(BigUint::mul(BigUint::mod(ab, r), neg_inv), r);
  return BigUint::add(ab, BigUint::mul(q, m.n)).shr(bits);
}

TEST(MontKernel, FinalSubtractEdges) {
  Drbg rng(to_bytes("mont-final-subtract"));
  // Moduli whose top limb is all ones (n just below R), the extreme
  // n = R - 1, and a 5-limb runtime-width case.
  std::vector<BigUint> moduli;
  for (std::size_t k : {4u, 5u, 8u}) {
    Bytes raw = rng.generate(8 * k);
    std::fill(raw.begin(), raw.begin() + 8, 0xff);
    raw.back() |= 0x01;
    moduli.push_back(BigUint::from_bytes_be(raw));
  }
  moduli.push_back(BigUint::from_bytes_be(Bytes(32, 0xff)));

  for (const BigUint& n : moduli) {
    const RawModulus m(n);
    const Montgomery ctx(n);
    const BigUint neg_inv = neg_inverse_mod_r(m);
    std::vector<BigUint> operands = {BigUint(0), BigUint(1), BigUint::sub(n, BigUint(1)),
                                     BigUint::sub(n, BigUint(2)), m.one};
    for (int i = 0; i < 12; ++i) operands.push_back(random_below(rng, n));

    int subtracted = 0, kept = 0;
    for (const BigUint& a : operands) {
      for (const BigUint& b : operands) {
        const BigUint pre = pre_subtract(m, neg_inv, a, b);
        ASSERT_LT(pre, BigUint::add(n, n));
        const bool over = pre >= n;
        (over ? subtracted : kept) += 1;
        const BigUint want = over ? BigUint::sub(pre, n) : pre;
        EXPECT_EQ(ctx.mul(a, b), want);
        EXPECT_EQ(kernel_mul<mont::kRuntimeWidth>(m, a, b), want);
        // want * R == a * b (mod n): the REDC value is the right residue.
        EXPECT_EQ(BigUint::mod(want.shl(64 * m.k), n), BigUint::mod(BigUint::mul(a, b), n));
      }
    }
    EXPECT_GT(subtracted, 0) << n.to_hex_string();
    EXPECT_GT(kept, 0) << n.to_hex_string();

    // a = n, b = 1 lands exactly on t == n: (n + (R - 1) * n) / R.
    EXPECT_EQ(pre_subtract(m, neg_inv, n, BigUint(1)), n);
    EXPECT_TRUE(kernel_mul<mont::kRuntimeWidth>(m, n, BigUint(1)).is_zero());
    if (m.k == 4) EXPECT_TRUE(kernel_mul<4>(m, n, BigUint(1)).is_zero());
    if (m.k == 8) EXPECT_TRUE(kernel_mul<8>(m, n, BigUint(1)).is_zero());
  }
}

TEST(MontKernel, ExponentEdges) {
  Drbg rng(to_bytes("mont-exponent-edges"));
  const BigUint one(1);
  const std::vector<BigUint> exponents = {
      BigUint(0), BigUint(1), BigUint(65537),
      // Around the 32-bit short-exponent threshold.
      BigUint(0x80000000ull), BigUint(0xffffffffull),
      BigUint(0x100000000ull), BigUint(0x1ffffffffull),
      // A long run of zero windows, all-ones windows, a lone top bit.
      BigUint::add(one.shl(200), one), BigUint::sub(one.shl(128), one), one.shl(255),
      // Alternating zero and all-ones windows.
      from_hex_str("f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f00f0f0f0f0f0f0f0f")};
  for (std::size_t limbs : {4u, 5u}) {
    const RawModulus m(random_odd_modulus(rng, limbs));
    const Montgomery ctx(m.n);
    const std::vector<BigUint> bases = {BigUint(0), BigUint(1), BigUint(2),
                                        BigUint::sub(m.n, BigUint(1)), random_below(rng, m.n)};
    for (const BigUint& base : bases) {
      for (const BigUint& e : exponents) {
        const BigUint want = naive_exp(base, e, m.n);
        EXPECT_EQ(ctx.exp(base, e), want) << limbs << " e=" << e.to_hex_string();
        EXPECT_EQ(kernel_exp<mont::kRuntimeWidth>(m, base, e), want);
        if (limbs == 4) EXPECT_EQ(kernel_exp<4>(m, base, e), want);
      }
    }
  }
}

}  // namespace
}  // namespace nonrep::crypto
