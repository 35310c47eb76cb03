// RSA-CRT fast path: known-answer vectors (ground truth computed with an
// independent implementation), CRT/full-width signature equivalence, the
// fault self-check fallback, and the versioned private-key wire format.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "crypto/signer.hpp"
#include "util/hex.hpp"
#include "util/serialize.hpp"

namespace nonrep::crypto {
namespace {

BigUint from_hex_str(const std::string& s) {
  auto b = from_hex(s.size() % 2 ? "0" + s : s);
  return BigUint::from_bytes_be(*b);
}

// 512-bit key with ground truth (d, dp, dq, qinv, signature) computed by an
// independent Python implementation over the same EMSA-PKCS1-v1_5 encoding.
struct KnownKey {
  static RsaPrivateKey make() {
    RsaPrivateKey key;
    key.pub.n = from_hex_str(
        "ca5fb65ad6323fa132a5ee52b6fecfd395e2029684dbd498717f1ad321dfaf48"
        "e87de076a634e79fb3c14cb92bf0a7f41e002b2e4273ca67c15cb18eb5e9fd9f");
    key.pub.e = 65537;
    key.d = from_hex_str(
        "a8b4c5a6502e2f914851bfadc0d4079911b80a0444d9a60f377e88743e26e54d"
        "dcd06409dda2b60d0fba6b25ac3ad104a9d27ac1263df9ade577d48960e85651");
    key.p = from_hex_str(
        "e56f11d1674958f86df05c7add92cd380b314d25e3f6240de2636fa0e7133d65");
    key.q = from_hex_str(
        "e1ce863ff3862b40600c9f02ddac2f3fb5d8e6c4c4a4cdda32c3de4b9c04d0b3");
    key.dp = from_hex_str(
        "43ef003a9db79515721002820acb65e25b460cced451d4591c184f3c384f7515");
    key.dq = from_hex_str(
        "12751c3a2c00c2964f839897d660d5b7e278695c9a2a527d4c7b0037b3f81ccb");
    key.qinv = from_hex_str(
        "38c0472b92aee994a3c9c9c942a8a4944b2ebc117fb642cf09d8cec593e7367f");
    return key;
  }

  static constexpr const char* kMsg = "crt known answer";
  static constexpr const char* kSigHex =
      "6e8662f1de1dcf6e8a08b19eaf2d63791cd6f4178b37d52738186cfbae287b7a"
      "c9bfc47c41c4c7b28f258b46ecaa370cd987ff3ed9d1b3baa05a6a603c3d4d3a";
};

RsaPrivateKey strip_crt(const RsaPrivateKey& key) {
  RsaPrivateKey out;
  out.pub = key.pub;
  out.d = key.d;
  return out;
}

TEST(RsaCrt, KnownAnswerSignature) {
  const RsaPrivateKey key = KnownKey::make();
  ASSERT_TRUE(key.has_crt());
  const Bytes sig = rsa_sign(key, to_bytes(KnownKey::kMsg));
  EXPECT_EQ(to_hex(sig), KnownKey::kSigHex);
  EXPECT_TRUE(rsa_verify(key.pub, to_bytes(KnownKey::kMsg), sig));
}

TEST(RsaCrt, KnownAnswerFullWidthIdentical) {
  const RsaPrivateKey full = strip_crt(KnownKey::make());
  ASSERT_FALSE(full.has_crt());
  EXPECT_EQ(to_hex(rsa_sign(full, to_bytes(KnownKey::kMsg))), KnownKey::kSigHex);
}

TEST(RsaCrt, CrtMatchesFullWidthOnGeneratedKeys) {
  Drbg rng(to_bytes("crt-equivalence"));
  for (std::size_t bits : {512u, 768u}) {
    const RsaPrivateKey key = rsa_generate(rng, bits);
    ASSERT_TRUE(key.has_crt()) << bits;
    const RsaPrivateKey full = strip_crt(key);
    for (int i = 0; i < 4; ++i) {
      const Bytes msg = rng.generate(40 + static_cast<std::size_t>(i) * 17);
      EXPECT_EQ(rsa_sign(key, msg), rsa_sign(full, msg)) << bits << "/" << i;
    }
  }
}

TEST(RsaCrt, GeneratedModulusReachesFullBitLength) {
  // The top-two-bits trick guarantees p*q never falls short of the
  // requested modulus width (the old code needed a trim loop).
  Drbg rng(to_bytes("full-width-modulus"));
  for (std::size_t bits : {512u, 640u, 768u}) {
    const RsaPrivateKey key = rsa_generate(rng, bits);
    EXPECT_EQ(key.pub.n.bit_length(), bits);
  }
}

TEST(RsaCrt, FaultyCrtParameterStillEmitsValidSignature) {
  // Corrupt dp: the CRT halves now disagree, the recombine-and-verify fault
  // check must notice and fall back to the full-width path, so the emitted
  // signature is still valid (and still byte-identical to full-width).
  RsaPrivateKey key = KnownKey::make();
  key.dp = BigUint::add(key.dp, BigUint(2));
  const Bytes sig = rsa_sign(key, to_bytes(KnownKey::kMsg));
  EXPECT_EQ(to_hex(sig), KnownKey::kSigHex);
  EXPECT_TRUE(rsa_verify(key.pub, to_bytes(KnownKey::kMsg), sig));
}

TEST(RsaCrt, PrivateKeyRoundTripV2) {
  const RsaPrivateKey key = KnownKey::make();
  const Bytes enc = key.encode();
  auto decoded = RsaPrivateKey::decode(enc);
  ASSERT_TRUE(decoded.ok()) << decoded.error().code;
  EXPECT_TRUE(decoded.value().has_crt());
  EXPECT_EQ(decoded.value().pub.n, key.pub.n);
  EXPECT_EQ(decoded.value().pub.e, key.pub.e);
  EXPECT_EQ(decoded.value().d, key.d);
  EXPECT_EQ(decoded.value().p, key.p);
  EXPECT_EQ(decoded.value().q, key.q);
  EXPECT_EQ(decoded.value().dp, key.dp);
  EXPECT_EQ(decoded.value().dq, key.dq);
  EXPECT_EQ(decoded.value().qinv, key.qinv);
  EXPECT_EQ(rsa_sign(decoded.value(), to_bytes("round trip")),
            rsa_sign(key, to_bytes("round trip")));
}

TEST(RsaCrt, DecodeRejectsRetiredV1Format) {
  // A version-1 (n, e, d) blob, as pre-CRT builds wrote it, is no longer
  // accepted; encode() only ever writes version 2.
  const RsaPrivateKey key = KnownKey::make();
  BinaryWriter w;
  w.u8(1);
  w.bytes(key.pub.n.to_bytes_be());
  w.u32(key.pub.e);
  w.bytes(key.d.to_bytes_be());
  auto decoded = RsaPrivateKey::decode(std::move(w).take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "rsa.bad_key");
  EXPECT_EQ(key.encode().front(), 2u);
  EXPECT_EQ(strip_crt(key).encode().front(), 2u);
}

TEST(RsaCrt, DecodeRejectsBadInput) {
  EXPECT_FALSE(RsaPrivateKey::decode(to_bytes("junk")).ok());
  EXPECT_FALSE(RsaPrivateKey::decode(Bytes{}).ok());

  // Unknown version byte.
  BinaryWriter w;
  w.u8(99);
  EXPECT_FALSE(RsaPrivateKey::decode(std::move(w).take()).ok());

  // v2 with CRT primes that do not multiply to n.
  RsaPrivateKey key = KnownKey::make();
  key.p = BigUint::add(key.p, BigUint(2));
  auto r = RsaPrivateKey::decode(key.encode());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "rsa.bad_key");
}

TEST(VerifierCacheConcurrency, ClearWhileVerifying) {
  // Race a wholesale invalidation against verifiers in flight: every
  // verify must still return the correct verdict, whether it hit the
  // cached decoded key or re-decoded after a clear. Run under TSan in CI.
  Drbg rng(to_bytes("clear-while-verifying"));
  const RsaPrivateKey key = rsa_generate(rng, 512);
  const Bytes pub = key.pub.encode();
  const Bytes good_msg = to_bytes("cached verification");
  const Bytes sig = rsa_sign(key, good_msg);
  const Bytes bad_msg = to_bytes("not the signed message");

  VerifierCache cache;
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> verifiers;
  for (int t = 0; t < 4; ++t) {
    verifiers.emplace_back([&] {
      for (int i = 0; i < 150; ++i) {
        if (!cache.verify(SigAlgorithm::kRsa, pub, good_msg, sig)) wrong.fetch_add(1);
        if (cache.verify(SigAlgorithm::kRsa, pub, bad_msg, sig)) wrong.fetch_add(1);
      }
    });
  }
  std::thread clearer([&] {
    while (!stop.load()) {
      cache.clear();
      std::this_thread::yield();
    }
  });
  for (auto& t : verifiers) t.join();
  stop.store(true);
  clearer.join();

  EXPECT_EQ(wrong.load(), 0);
  // The cache still works after the churn.
  EXPECT_TRUE(cache.verify(SigAlgorithm::kRsa, pub, good_msg, sig));
  EXPECT_LE(cache.size(), 1u);
}

TEST(VerifierCacheConcurrency, SharedMontgomeryContextAcrossThreads) {
  // Copies handed out by the cache share one immutable Montgomery context;
  // concurrent exponentiations through it must agree with cold verifies.
  Drbg rng(to_bytes("shared-context"));
  const RsaPrivateKey key = rsa_generate(rng, 512);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const Bytes msg = to_bytes("msg-" + std::to_string(t) + "-" + std::to_string(i));
        const Bytes sig = rsa_sign(key, msg);
        if (!rsa_verify(key.pub, msg, sig)) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(RsaCrt, GeneratedKeySerializationRoundTrip) {
  Drbg rng(to_bytes("gen-roundtrip"));
  const RsaPrivateKey key = rsa_generate(rng, 512);
  auto decoded = RsaPrivateKey::decode(key.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().has_crt());
  const Bytes msg = to_bytes("serialized key still signs");
  EXPECT_EQ(rsa_sign(decoded.value(), msg), rsa_sign(key, msg));
  EXPECT_TRUE(rsa_verify(decoded.value().pub, msg, rsa_sign(decoded.value(), msg)));
}

}  // namespace
}  // namespace nonrep::crypto
