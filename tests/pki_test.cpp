#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "crypto/drbg.hpp"
#include "pki/authority.hpp"
#include "pki/credential_manager.hpp"
#include "pki/revocation.hpp"

namespace nonrep::pki {
namespace {

using crypto::Drbg;
using crypto::RsaSigner;

constexpr TimeMs kYear = 1000ull * 60 * 60 * 24 * 365;

struct PkiFixture : ::testing::Test {
  PkiFixture() : rng(to_bytes("pki-fixture")) {
    ca_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
    ca = std::make_unique<CertificateAuthority>(PartyId("ca:root"), ca_signer, 0, kYear);
    subject_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
    subject_cert = ca->issue(PartyId("org:a"), subject_signer->algorithm(),
                             subject_signer->public_key(), 0, kYear)
                       .take();
    EXPECT_TRUE(manager.add_trusted_root(ca->certificate()).ok());
    manager.add_certificate(subject_cert);
  }

  Drbg rng;
  std::shared_ptr<RsaSigner> ca_signer;
  std::unique_ptr<CertificateAuthority> ca;
  std::shared_ptr<RsaSigner> subject_signer;
  Certificate subject_cert;
  CredentialManager manager;
};

TEST_F(PkiFixture, CertificateEncodeDecode) {
  auto decoded = Certificate::decode(subject_cert.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().subject, subject_cert.subject);
  EXPECT_EQ(decoded.value().serial, subject_cert.serial);
  EXPECT_EQ(decoded.value().issuer_signature, subject_cert.issuer_signature);
  EXPECT_EQ(decoded.value().tbs(), subject_cert.tbs());
}

TEST_F(PkiFixture, DecodeRejectsGarbage) {
  EXPECT_FALSE(Certificate::decode(to_bytes("nonsense")).ok());
}

TEST_F(PkiFixture, RootIsSelfSignedCa) {
  const Certificate& root = ca->certificate();
  EXPECT_TRUE(root.self_signed());
  EXPECT_TRUE(root.is_ca);
  EXPECT_TRUE(
      crypto::verify(root.algorithm, root.public_key, root.tbs(), root.issuer_signature));
}

TEST_F(PkiFixture, ChainVerifies) {
  EXPECT_TRUE(manager.verify_chain(subject_cert, 100).ok());
}

TEST_F(PkiFixture, ExpiredCertificateRejected) {
  auto status = manager.verify_chain(subject_cert, kYear + 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.expired");
}

TEST_F(PkiFixture, NotYetValidRejected) {
  Certificate future = ca->issue(PartyId("org:later"), subject_signer->algorithm(),
                                 subject_signer->public_key(), 500, kYear)
                           .take();
  manager.add_certificate(future);
  EXPECT_FALSE(manager.verify_chain(future, 100).ok());
  EXPECT_TRUE(manager.verify_chain(future, 600).ok());
}

TEST_F(PkiFixture, TamperedCertificateRejected) {
  Certificate bad = subject_cert;
  bad.subject = PartyId("org:mallory");  // claims someone else's key
  auto status = manager.verify_chain(bad, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.bad_signature");
}

TEST_F(PkiFixture, IntermediateChainVerifies) {
  auto inter_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  Certificate inter_cert = ca->issue(PartyId("ca:intermediate"), inter_signer->algorithm(),
                                     inter_signer->public_key(), 0, kYear, /*is_ca=*/true)
                               .take();
  CertificateAuthority intermediate(inter_cert, inter_signer);

  auto leaf_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  Certificate leaf = intermediate.issue(PartyId("org:leaf"), leaf_signer->algorithm(),
                                        leaf_signer->public_key(), 0, kYear)
                         .take();
  manager.add_certificate(inter_cert);
  manager.add_certificate(leaf);
  EXPECT_TRUE(manager.verify_chain(leaf, 100).ok());
}

TEST_F(PkiFixture, ChainThroughNonCaRejected) {
  auto leaf_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  CertificateAuthority fake(subject_cert, subject_signer);  // abuses a non-CA cert
  Certificate leaf = fake.issue(PartyId("org:victim"), leaf_signer->algorithm(),
                                leaf_signer->public_key(), 0, kYear)
                         .take();
  manager.add_certificate(leaf);
  auto status = manager.verify_chain(leaf, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.not_a_ca");
}

TEST_F(PkiFixture, MissingIssuerRejected) {
  auto other_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  CertificateAuthority other_ca(PartyId("ca:unknown"), other_signer, 0, kYear);
  Certificate orphan = other_ca.issue(PartyId("org:x"), other_signer->algorithm(),
                                      other_signer->public_key(), 0, kYear)
                           .take();
  auto status = manager.verify_chain(orphan, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.incomplete_chain");
}

TEST_F(PkiFixture, BadRootRejected) {
  CredentialManager m2;
  auto status = m2.add_trusted_root(subject_cert);  // not self-signed CA
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.bad_root");
}

TEST_F(PkiFixture, FindCertificate) {
  auto found = manager.find(PartyId("org:a"));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().serial, subject_cert.serial);
  EXPECT_FALSE(manager.find(PartyId("org:nobody")).ok());
}

TEST_F(PkiFixture, VerifySignatureEndToEnd) {
  const Bytes msg = to_bytes("signed statement");
  auto sig = subject_signer->sign(msg);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(manager.verify_signature(PartyId("org:a"), msg, sig.value(), 100).ok());
  EXPECT_FALSE(
      manager.verify_signature(PartyId("org:a"), to_bytes("other"), sig.value(), 100).ok());
}

TEST_F(PkiFixture, RevocationBlocksChain) {
  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ra.revoke(subject_cert.serial);
  ASSERT_TRUE(manager.install_crl(ra.current(50).take()).ok());
  auto status = manager.verify_chain(subject_cert, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.revoked");
}

TEST_F(PkiFixture, CrlEncodeDecode) {
  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ra.revoke("a/1");
  ra.revoke("a/2");
  const RevocationList crl = ra.current(123).take();
  auto decoded = RevocationList::decode(crl.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().revoked_serials, crl.revoked_serials);
  EXPECT_EQ(decoded.value().issued_at, 123u);
}

TEST_F(PkiFixture, ForgedCrlRejected) {
  RevocationAuthority forger(PartyId("ca:root"), subject_signer);
  forger.revoke(subject_cert.serial);
  auto status = manager.install_crl(forger.current(50).take());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.bad_crl_signature");
  EXPECT_TRUE(manager.verify_chain(subject_cert, 100).ok());  // still valid
}

TEST_F(PkiFixture, StaleCrlRejected) {
  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ASSERT_TRUE(manager.install_crl(ra.current(100).take()).ok());
  auto status = manager.install_crl(ra.current(50).take());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.stale_crl");
}

TEST_F(PkiFixture, UnknownCrlIssuerRejected) {
  auto other_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  RevocationAuthority ra(PartyId("ca:other"), other_signer);
  auto status = manager.install_crl(ra.current(10).take());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.unknown_crl_issuer");
}

TEST_F(PkiFixture, RevocationOfIntermediateBlocksLeaf) {
  auto inter_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  Certificate inter_cert = ca->issue(PartyId("ca:inter2"), inter_signer->algorithm(),
                                     inter_signer->public_key(), 0, kYear, true)
                               .take();
  CertificateAuthority intermediate(inter_cert, inter_signer);
  auto leaf_signer = std::make_shared<RsaSigner>(crypto::rsa_generate(rng, 512));
  Certificate leaf = intermediate.issue(PartyId("org:leaf2"), leaf_signer->algorithm(),
                                        leaf_signer->public_key(), 0, kYear)
                         .take();
  manager.add_certificate(inter_cert);
  manager.add_certificate(leaf);
  ASSERT_TRUE(manager.verify_chain(leaf, 100).ok());

  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ra.revoke(inter_cert.serial);
  ASSERT_TRUE(manager.install_crl(ra.current(60).take()).ok());
  EXPECT_FALSE(manager.verify_chain(leaf, 100).ok());
}

TEST_F(PkiFixture, SerialNumbersUnique) {
  auto c1 = ca->issue(PartyId("org:s1"), subject_signer->algorithm(),
                      subject_signer->public_key(), 0, kYear)
                .take();
  auto c2 = ca->issue(PartyId("org:s2"), subject_signer->algorithm(),
                      subject_signer->public_key(), 0, kYear)
                .take();
  EXPECT_NE(c1.serial, c2.serial);
}

TEST_F(PkiFixture, MerkleCertifiedParty) {
  Drbg mrng(to_bytes("merkle-party"));
  auto msigner = crypto::MerkleSchemeSigner::create(mrng, 3).take();
  Certificate mcert = ca->issue(PartyId("org:merkle"), msigner->algorithm(),
                                msigner->public_key(), 0, kYear)
                          .take();
  manager.add_certificate(mcert);
  ASSERT_TRUE(manager.verify_chain(mcert, 100).ok());
  auto sig = msigner->sign(to_bytes("hash-based evidence"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(manager
                  .verify_signature(PartyId("org:merkle"), to_bytes("hash-based evidence"),
                                    sig.value(), 100)
                  .ok());
}

TEST_F(PkiFixture, RootSelfSignStatusOk) {
  EXPECT_TRUE(ca->status().ok());
}

TEST_F(PkiFixture, IssueReportsSignerFailure) {
  // A height-1 Merkle signer holds two one-time keys: the root CA's
  // self-signature consumes one, the first issuance the other. The second
  // issuance must surface the signer failure instead of asserting.
  Drbg mrng(to_bytes("exhaustible-ca"));
  auto msigner = crypto::MerkleSchemeSigner::create(mrng, 1).take();
  CertificateAuthority mca(PartyId("ca:merkle"), msigner, 0, kYear);
  EXPECT_TRUE(mca.status().ok());
  auto first = mca.issue(PartyId("org:one"), subject_signer->algorithm(),
                         subject_signer->public_key(), 0, kYear);
  ASSERT_TRUE(first.ok());
  auto second = mca.issue(PartyId("org:two"), subject_signer->algorithm(),
                          subject_signer->public_key(), 0, kYear);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, "merkle.exhausted");
}

TEST_F(PkiFixture, RootSelfSignFailureNotTrusted) {
  // Exhaust a Merkle signer, then build a root CA from it: the self-signed
  // certificate carries an empty signature and must be rejected as a root.
  Drbg mrng(to_bytes("dead-root"));
  auto msigner = crypto::MerkleSchemeSigner::create(mrng, 1).take();
  for (int i = 0; i < 2; ++i) (void)msigner->sign(to_bytes("burn"));
  CertificateAuthority dead(PartyId("ca:dead"), msigner, 0, kYear);
  EXPECT_FALSE(dead.status().ok());
  CredentialManager m2;
  auto status = m2.add_trusted_root(dead.certificate());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.bad_root_signature");
}

// ---- Verification caches ----

TEST_F(PkiFixture, ChainCacheHitsOnRepeatVerification) {
  EXPECT_EQ(manager.chain_cache_size(), 0u);
  ASSERT_TRUE(manager.verify_chain(subject_cert, 100).ok());
  EXPECT_EQ(manager.chain_cache_size(), 1u);
  EXPECT_EQ(manager.chain_cache_hits(), 0u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager.verify_chain(subject_cert, 100 + i).ok());
  }
  EXPECT_EQ(manager.chain_cache_hits(), 3u);
  EXPECT_EQ(manager.chain_cache_size(), 1u);
}

TEST_F(PkiFixture, ChainCacheRespectsValidityWindow) {
  ASSERT_TRUE(manager.verify_chain(subject_cert, 100).ok());
  // A cached entry must not vouch for times outside the chain's window.
  auto status = manager.verify_chain(subject_cert, kYear + 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.expired");
}

TEST_F(PkiFixture, CrlInstallInvalidatesChainCache) {
  ASSERT_TRUE(manager.verify_chain(subject_cert, 100).ok());
  ASSERT_TRUE(manager.verify_chain(subject_cert, 100).ok());
  EXPECT_GE(manager.chain_cache_hits(), 1u);

  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ra.revoke(subject_cert.serial);
  ASSERT_TRUE(manager.install_crl(ra.current(50).take()).ok());

  // The revocation must take effect despite the earlier cached success.
  EXPECT_EQ(manager.chain_cache_size(), 0u);
  auto status = manager.verify_chain(subject_cert, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.revoked");
}

TEST_F(PkiFixture, CachedSignatureVerificationStaysCorrect) {
  const Bytes msg = to_bytes("evidence bytes");
  auto sig = subject_signer->sign(msg);
  ASSERT_TRUE(sig.ok());
  // Repeated verifies (hitting both caches) agree with the cold path.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(manager.verify_signature(PartyId("org:a"), msg, sig.value(), 100).ok());
  }
  Bytes tampered = sig.value();
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_FALSE(manager.verify_signature(PartyId("org:a"), msg, tampered, 100).ok());
}

TEST_F(PkiFixture, ClearCachesDropsChainCacheAndTicksEpoch) {
  const Bytes msg = to_bytes("m");
  auto sig = subject_signer->sign(msg);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(manager.verify_signature(PartyId("org:a"), msg, sig.value(), 100).ok());
  ASSERT_EQ(manager.chain_cache_size(), 1u);
  const std::uint64_t epoch = manager.trust_epoch();
  manager.clear_caches();
  EXPECT_EQ(manager.chain_cache_size(), 0u);
  // The tick is what stales the evidence service's audit segment memo.
  EXPECT_GT(manager.trust_epoch(), epoch);
}

TEST_F(PkiFixture, VerifySignatureReturnsTheChainWindow) {
  const Bytes msg = to_bytes("windowed");
  auto sig = subject_signer->sign(msg);
  ASSERT_TRUE(sig.ok());
  auto window = manager.verify_signature(PartyId("org:a"), msg, sig.value(), 100);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ(window->not_before, subject_cert.not_before);
  EXPECT_EQ(window->not_after, subject_cert.not_after);
  // A chain-cache hit hands back the same window.
  auto again = manager.verify_signature(PartyId("org:a"), msg, sig.value(), 200);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->not_before, window->not_before);
  EXPECT_EQ(again->not_after, window->not_after);
  EXPECT_FALSE(manager.verify_signature(PartyId("org:a"), msg, sig.value(), kYear + 1).ok());
}

TEST_F(PkiFixture, EightThreadVerifySignatureUnderConcurrentRevocation) {
  // Readers hammer verify_signature while the CRL lands mid-flight. Every
  // answer must be one of the two legal ones — verified (pre-revocation
  // trust) or pki.revoked — the installing thread never sees a success
  // after its install, and afterwards nothing is cached. (The TSan job is
  // what gives this test its teeth.)
  constexpr int kThreads = 8;
  constexpr int kMessages = 16;
  constexpr int kOpsPerThread = 300;

  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (int i = 0; i < kMessages; ++i) {
    msgs.push_back(to_bytes("object-" + std::to_string(i)));
    auto sig = subject_signer->sign(msgs.back());
    ASSERT_TRUE(sig.ok());
    sigs.push_back(std::move(sig).take());
  }

  RevocationAuthority ra(PartyId("ca:root"), ca_signer);
  ra.revoke(subject_cert.serial);
  RevocationList crl = ra.current(50).take();

  std::atomic<int> bogus{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool installed = false;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto idx = static_cast<std::size_t>((t * 13 + i) % kMessages);
        auto r = manager.verify_signature(PartyId("org:a"), msgs[idx], sigs[idx], 100);
        if (!r.ok() && r.error().code != "pki.revoked") bogus.fetch_add(1);
        if (r.ok() && installed) bogus.fetch_add(1);  // a masked revocation
        if (t == 0 && i == kOpsPerThread / 2) {
          RevocationList copy = crl;
          if (!manager.install_crl(std::move(copy)).ok()) bogus.fetch_add(1);
          installed = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bogus.load(), 0);
  auto status = manager.verify_signature(PartyId("org:a"), msgs[0], sigs[0], 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "pki.revoked");
  EXPECT_EQ(manager.chain_cache_size(), 0u);  // nothing re-cached after revocation
}

TEST(VerifierCache, MatchesUncachedVerify) {
  Drbg rng(to_bytes("verifier-cache"));
  RsaSigner signer(crypto::rsa_generate(rng, 512));
  const Bytes pub = signer.public_key();
  const Bytes msg = to_bytes("m");
  auto sig = signer.sign(msg);
  ASSERT_TRUE(sig.ok());

  crypto::VerifierCache cache;
  EXPECT_TRUE(cache.verify(crypto::SigAlgorithm::kRsa, pub, msg, sig.value()));
  EXPECT_EQ(cache.size(), 1u);
  // Cached key, wrong message / tampered signature still rejected.
  EXPECT_FALSE(cache.verify(crypto::SigAlgorithm::kRsa, pub, to_bytes("n"), sig.value()));
  Bytes bad = sig.value();
  bad[0] ^= 1;
  EXPECT_FALSE(cache.verify(crypto::SigAlgorithm::kRsa, pub, msg, bad));
  EXPECT_EQ(cache.size(), 1u);
  // Garbage keys are not cached.
  EXPECT_FALSE(cache.verify(crypto::SigAlgorithm::kRsa, to_bytes("junk"), msg, sig.value()));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace nonrep::pki
