// P1 — §6: "the computational overhead of cryptographic algorithms".
// Sign/verify/hash costs for every primitive the interceptors use, across
// RSA key sizes and the hash-based (forward-secure) Merkle scheme.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/mont_kernel.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace nonrep;
using namespace nonrep::crypto;

const RsaPrivateKey& rsa_key(std::size_t bits) {
  static std::map<std::size_t, RsaPrivateKey> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    Drbg rng(to_bytes("bench-rsa-" + std::to_string(bits)));
    it = keys.emplace(bits, rsa_generate(rng, bits)).first;
  }
  return it->second;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = to_bytes("integrity-key");
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x3c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DrbgGenerate(benchmark::State& state) {
  Drbg rng(to_bytes("bench-drbg"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.generate(static_cast<std::size_t>(state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(16)->Arg(1024);

// Random odd modulus of `limbs` 64-bit limbs with the top bit set.
BigUint random_modulus(Drbg& rng, std::size_t limbs) {
  Bytes raw = rng.generate(limbs * 8);
  raw.front() |= 0x80;
  raw.back() |= 0x01;
  return BigUint::from_bytes_be(raw);
}

std::vector<std::uint64_t> to_limbs(const BigUint& x, std::size_t limbs) {
  const Bytes be = x.to_bytes_be(limbs * 8);
  std::vector<std::uint64_t> out(limbs, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t from_lsb = be.size() - 1 - i;
    out[from_lsb / 8] |= static_cast<std::uint64_t>(be[i]) << (8 * (from_lsb % 8));
  }
  return out;
}

template <std::size_t K>
void BM_MontMul(benchmark::State& state) {
  // One fixed-width kernel multiply (K limbs), chained so each call depends
  // on the previous result, as in an exponentiation ladder.
  Drbg rng(to_bytes("bench-montmul-" + std::to_string(K)));
  const BigUint n = random_modulus(rng, K);
  const auto n_limbs = to_limbs(n, K);
  const auto b = to_limbs(BigUint::mod(BigUint::from_bytes_be(rng.generate(K * 8)), n), K);
  auto acc = to_limbs(BigUint::mod(BigUint::from_bytes_be(rng.generate(K * 8)), n), K);
  const mont::Modulus m{n_limbs.data(), nullptr, nullptr, mont::neg_inverse(n_limbs[0]), K};
  std::vector<std::uint64_t> t(mont::mul_scratch(K));
  for (auto _ : state) {
    mont::mul<K>(m, acc.data(), acc.data(), b.data(), t.data());
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_MontMul<4>)->Name("BM_MontMul/4");
BENCHMARK(BM_MontMul<8>)->Name("BM_MontMul/8");
BENCHMARK(BM_MontMul<16>)->Name("BM_MontMul/16");
BENCHMARK(BM_MontMul<32>)->Name("BM_MontMul/32");

void BM_MontExp(benchmark::State& state) {
  // Montgomery::exp with an exponent as wide as the modulus: /256 is one
  // CRT half of an RSA-512 signature, /512 of RSA-1024, /1024 of RSA-2048.
  const auto bits = static_cast<std::size_t>(state.range(0));
  Drbg rng(to_bytes("bench-montexp-" + std::to_string(bits)));
  const BigUint n = random_modulus(rng, bits / 64);
  const Montgomery ctx(n);
  const BigUint base = BigUint::mod(BigUint::from_bytes_be(rng.generate(bits / 8)), n);
  const BigUint e = random_modulus(rng, bits / 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.exp(base, e));
  }
}
BENCHMARK(BM_MontExp)->Arg(256)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaSign(benchmark::State& state) {
  const RsaPrivateKey& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = to_bytes("evidence subject bytes");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaSignNoCrt(benchmark::State& state) {
  // Full-width m^d path (the CRT fault check's fallback) — the delta to
  // BM_RsaSign is the CRT win.
  const RsaPrivateKey& crt_key = rsa_key(static_cast<std::size_t>(state.range(0)));
  RsaPrivateKey key;
  key.pub = crt_key.pub;
  key.d = crt_key.d;
  const Bytes msg = to_bytes("evidence subject bytes");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_RsaSignNoCrt)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const RsaPrivateKey& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = to_bytes("evidence subject bytes");
  const Bytes sig = rsa_sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_RsaKeygen(benchmark::State& state) {
  Drbg rng(to_bytes("bench-keygen"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_generate(rng, static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_LamportSign(benchmark::State& state) {
  Drbg rng(to_bytes("bench-lamport"));
  const LamportKeyPair kp = lamport_generate(rng);
  const Bytes msg = to_bytes("one-time message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamport_sign(kp.priv, msg));
  }
  state.counters["sig_bytes"] = 256 * 32;
}
BENCHMARK(BM_LamportSign)->Unit(benchmark::kMicrosecond);

void BM_LamportVerify(benchmark::State& state) {
  Drbg rng(to_bytes("bench-lamport-v"));
  const LamportKeyPair kp = lamport_generate(rng);
  const Bytes msg = to_bytes("one-time message");
  const Bytes sig = lamport_sign(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamport_verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_LamportVerify)->Unit(benchmark::kMicrosecond);

void BM_MerkleSign(benchmark::State& state) {
  // Forward-secure signing; tree rebuilt when exhausted (cost amortised
  // in keygen, excluded here by pausing timing).
  Drbg rng(to_bytes("bench-merkle"));
  const auto height = static_cast<std::size_t>(state.range(0));
  auto signer = std::make_unique<MerkleSigner>(MerkleSigner::create(rng, height).take());
  const Bytes msg = to_bytes("evidence");
  for (auto _ : state) {
    if (signer->exhausted()) {
      state.PauseTiming();
      signer = std::make_unique<MerkleSigner>(MerkleSigner::create(rng, height).take());
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(signer->sign(msg));
  }
}
BENCHMARK(BM_MerkleSign)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_MerkleVerify(benchmark::State& state) {
  Drbg rng(to_bytes("bench-merkle-v"));
  const auto height = static_cast<std::size_t>(state.range(0));
  auto signer = MerkleSigner::create(rng, height).take();
  const Bytes msg = to_bytes("evidence");
  const Bytes sig = std::move(signer.sign(msg)).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(merkle_verify(signer.root(), height, msg, sig));
  }
  state.counters["sig_bytes"] = static_cast<double>(sig.size());
}
BENCHMARK(BM_MerkleVerify)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_MerkleKeygen(benchmark::State& state) {
  Drbg rng(to_bytes("bench-merkle-k"));
  for (auto _ : state) {
    auto signer = MerkleSigner::create(rng, static_cast<std::size_t>(state.range(0))).take();
    benchmark::DoNotOptimize(signer.root());
  }
  state.counters["signatures_available"] =
      static_cast<double>(1u << static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_MerkleKeygen)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
