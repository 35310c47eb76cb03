// Golden bytes and hostile bytes for the canonical encoders.
//
// Evidence is signed, chained and journalled over these encodings, so they
// may never change: the constants below were produced by the encoders as
// they stood before the exact-size rewrite (util/serialize.hpp), and every
// signature and journal written since verifies only while the bytes match.
//
// The hostile half feeds each decoder every proper prefix of a valid
// encoding, and the encoding with each length prefix claiming more bytes
// than remain. Each must come back as an error; run under ASan/UBSan it
// also shows no read past the input.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "container/invocation.hpp"
#include "core/evidence.hpp"
#include "core/invocation_protocol.hpp"
#include "core/protocol_message.hpp"
#include "pki/certificate.hpp"
#include "store/evidence_log.hpp"
#include "tsa/timestamp.hpp"
#include "util/hex.hpp"
#include "util/serialize.hpp"

namespace nonrep {
namespace {

constexpr std::string_view kTokenTbs =
    "0320000000303132333435363738396162636465663031323334353637383961626364656611"
    "0000006f72673a676f6c64656e2d6973737565720807060504030201200000009d73bba1e822"
    "ea2b639cf9f73b396587fa09fb825bd24ecb32b82eb571f0f2df";
constexpr std::string_view kTokenEncode =
    "6600000003200000003031323334353637383961626364656630313233343536373839616263"
    "646566110000006f72673a676f6c64656e2d6973737565720807060504030201200000009d73"
    "bba1e822ea2b639cf9f73b396587fa09fb825bd24ecb32b82eb571f0f2df10000000030a1118"
    "1f262d343b424950575e656c";
constexpr std::string_view kLogCanonical =
    "2a000000000000007b68e5cf8b01000020000000303132333435363738396162636465663031"
    "323334353637383961626364656612000000746f6b656e2e4e524f2d726573706f6e73657e00"
    "0000660000000320000000303132333435363738396162636465663031323334353637383961"
    "6263646566110000006f72673a676f6c64656e2d697373756572080706050403020120000000"
    "9d73bba1e822ea2b639cf9f73b396587fa09fb825bd24ecb32b82eb571f0f2df10000000030a"
    "11181f262d343b424950575e656c";
constexpr std::string_view kLogChain =
    "d3cf5bcee0cd15141124879079871d26704baf9a8350618b7ddf201be9a6c815";
constexpr std::string_view kLogEncode =
    "cc0000002a000000000000007b68e5cf8b010000200000003031323334353637383961626364"
    "65663031323334353637383961626364656612000000746f6b656e2e4e524f2d726573706f6e"
    "73657e0000006600000003200000003031323334353637383961626364656630313233343536"
    "373839616263646566110000006f72673a676f6c64656e2d6973737565720807060504030201"
    "200000009d73bba1e822ea2b639cf9f73b396587fa09fb825bd24ecb32b82eb571f0f2df1000"
    "0000030a11181f262d343b424950575e656c20000000d3cf5bcee0cd15141124879079871d26"
    "704baf9a8350618b7ddf201be9a6c815";
constexpr std::string_view kMessageEncode =
    "140000006e722e696e766f636174696f6e2e6469726563742000000030313233343536373839"
    "61626364656630313233343536373839616263646566020000000a0000006f72673a73657276"
    "65720700000001020000006f6b020000006f0000005f00000002200000003031323334353637"
    "3839616263646566303132333435363738396162636465660a0000006f72673a736572766572"
    "0807060504030201200000009d73bba1e822ea2b639cf9f73b396587fa09fb825bd24ecb32b8"
    "2eb571f0f2df0800000001060b10151a1f247e00000066000000032000000030313233343536"
    "37383961626364656630313233343536373839616263646566110000006f72673a676f6c6465"
    "6e2d6973737565720807060504030201200000009d73bba1e822ea2b639cf9f73b396587fa09"
    "fb825bd24ecb32b82eb571f0f2df10000000030a11181f262d343b424950575e656c";
constexpr std::string_view kCertTbs =
    "0800000073657269616c2d370b0000006f72673a7375626a656374060000006f72673a636101"
    "1800000009141f2a35404b56616c77828d98a3aeb9c4cfdae5f0fb06e8030000000000008084"
    "1e000000000001";
constexpr std::string_view kCertEncode =
    "530000000800000073657269616c2d370b0000006f72673a7375626a656374060000006f7267"
    "3a6361011800000009141f2a35404b56616c77828d98a3aeb9c4cfdae5f0fb06e80300000000"
    "000080841e000000000001020c0000000205080b0e1114171a1d2023";
constexpr std::string_view kInvocationCanonical =
    "110000007376633a2f2f7365727665722f6563686f040000006563686f04000000617267730a"
    "0000006f72673a636c69656e740200000001000000610100000062060000006e722e72756e02"
    "0000007231";
constexpr std::string_view kRequestSubject =
    "150000006e722e696e766f636174696f6e2e7265717565737451000000110000007376633a2f"
    "2f7365727665722f6563686f040000006563686f04000000617267730a0000006f72673a636c"
    "69656e740200000001000000610100000062060000006e722e72756e020000007231";
constexpr std::string_view kResponseSubject =
    "160000006e722e696e766f636174696f6e2e726573706f6e7365200000003031323334353637"
    "3839616263646566303132333435363738396162636465660700000001020000006f6b";

constexpr std::string_view kTimestampTbs =
    "070000006f72673a74736120000000ca2fe80680584cc13ea8288c0ca1db7159e62f523c7377"
    "5ef7ceecd062bf15a1e76be5cf8b010000";
constexpr std::string_view kTimestampEncode =
    "37000000070000006f72673a74736120000000ca2fe80680584cc13ea8288c0ca1db7159e62f"
    "523c73775ef7ceecd062bf15a1e76be5cf8b0100000a00000004111e2b3845525f6c79";

Bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * mul + add);
  return b;
}

core::EvidenceToken golden_token() {
  core::EvidenceToken t;
  t.type = core::EvidenceType::kNroResponse;
  t.run = RunId("0123456789abcdef0123456789abcdef");
  t.issuer = PartyId("org:golden-issuer");
  t.issued_at = 0x0102030405060708ull;
  t.subject = crypto::Sha256::hash(to_bytes("golden subject"));
  t.signature = pattern(16, 7, 3);
  return t;
}

core::EvidenceToken golden_receipt() {
  core::EvidenceToken t = golden_token();
  t.type = core::EvidenceType::kNrrRequest;
  t.issuer = PartyId("org:server");
  t.signature = pattern(8, 5, 1);
  return t;
}

store::LogRecord golden_record() {
  store::LogRecord r;
  r.sequence = 42;
  r.time = 1700000000123ull;
  r.run = RunId("0123456789abcdef0123456789abcdef");
  r.kind = "token.NRO-response";
  r.payload = golden_token().encode();
  r.chain = store::chain_digest(crypto::Sha256::hash(to_bytes("prev")), r);
  return r;
}

core::ProtocolMessage golden_message() {
  core::ProtocolMessage m;
  m.protocol = "nr.invocation.direct";
  m.run = RunId("0123456789abcdef0123456789abcdef");
  m.step = 2;
  m.sender = PartyId("org:server");
  m.body = container::InvocationResult::success(to_bytes("ok")).canonical();
  m.tokens = {golden_receipt(), golden_token()};
  return m;
}

pki::Certificate golden_certificate() {
  pki::Certificate c;
  c.serial = "serial-7";
  c.subject = PartyId("org:subject");
  c.issuer = PartyId("org:ca");
  c.algorithm = crypto::SigAlgorithm::kRsa;
  c.public_key = pattern(24, 11, 9);
  c.not_before = 1000;
  c.not_after = 2000000;
  c.is_ca = true;
  c.issuer_algorithm = crypto::SigAlgorithm::kMerkle;
  c.issuer_signature = pattern(12, 3, 2);
  return c;
}

container::Invocation golden_invocation() {
  container::Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("args");
  inv.caller = PartyId("org:client");
  inv.context = {{"nr.run", "r1"}, {"a", "b"}};
  return inv;
}

TEST(GoldenBytes, EvidenceToken) {
  const core::EvidenceToken t = golden_token();
  EXPECT_EQ(to_hex(t.tbs()), kTokenTbs);
  EXPECT_EQ(to_hex(t.encode()), kTokenEncode);
  auto decoded = core::EvidenceToken::decode(*from_hex(kTokenEncode));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), t);
}

TEST(GoldenBytes, LogRecordAndChainDigest) {
  const store::LogRecord r = golden_record();
  EXPECT_EQ(to_hex(r.canonical()), kLogCanonical);
  EXPECT_EQ(to_hex(r.chain), kLogChain);
  // chain_digest hashes the fields without building canonical(); it must
  // equal the digest of prev || canonical().
  crypto::Sha256 h;
  h.update(crypto::Sha256::hash(to_bytes("prev")));
  h.update(r.canonical());
  EXPECT_EQ(h.finish(), r.chain);
  EXPECT_EQ(to_hex(store::encode_log_record(r)), kLogEncode);
  auto decoded = store::decode_log_record(*from_hex(kLogEncode));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().payload, r.payload);
  EXPECT_EQ(decoded.value().chain, r.chain);
}

TEST(GoldenBytes, ProtocolMessageWithTwoTokens) {
  EXPECT_EQ(to_hex(golden_message().encode()), kMessageEncode);
  auto decoded = core::ProtocolMessage::decode(*from_hex(kMessageEncode));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().tokens.size(), 2u);
  EXPECT_EQ(decoded.value().tokens[0], golden_receipt());
  EXPECT_EQ(decoded.value().tokens[1], golden_token());
  EXPECT_EQ(decoded.value().body, golden_message().body);
}

TEST(GoldenBytes, Certificate) {
  const pki::Certificate c = golden_certificate();
  EXPECT_EQ(to_hex(c.tbs()), kCertTbs);
  EXPECT_EQ(to_hex(c.encode()), kCertEncode);
  auto decoded = pki::Certificate::decode(*from_hex(kCertEncode));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().encode(), c.encode());
}

TEST(GoldenBytes, InvocationSubjects) {
  const container::Invocation inv = golden_invocation();
  EXPECT_EQ(to_hex(inv.canonical()), kInvocationCanonical);
  EXPECT_EQ(to_hex(core::request_subject(inv)), kRequestSubject);
  EXPECT_EQ(to_hex(core::request_subject(inv.canonical())), kRequestSubject);
  EXPECT_EQ(to_hex(core::response_subject(RunId("0123456789abcdef0123456789abcdef"),
                                          container::InvocationResult::success(to_bytes("ok")))),
            kResponseSubject);
}

TEST(GoldenBytes, TimestampToken) {
  tsa::TimestampToken ts;
  ts.authority = PartyId("org:tsa");
  ts.subject_digest = crypto::Sha256::hash(to_bytes("stamped"));
  ts.time = 1700000000999ull;
  ts.signature = pattern(10, 13, 4);
  EXPECT_EQ(to_hex(ts.tbs()), kTimestampTbs);
  EXPECT_EQ(to_hex(ts.encode()), kTimestampEncode);
  auto decoded = tsa::TimestampToken::decode(*from_hex(kTimestampEncode));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().encode(), ts.encode());
}

// ---------------------------------------------------------------------------
// Hostile bytes.

// Offsets of the u32 length prefixes in an encoded token that starts at
// `at` (the outer tbs and signature prefixes and the ones inside tbs).
void token_prefixes(const core::EvidenceToken& t, std::size_t at, std::vector<std::size_t>& out) {
  const std::size_t run = t.run.str().size();
  const std::size_t issuer = t.issuer.str().size();
  const std::size_t tbs = 1 + 4 + run + 4 + issuer + 8 + 4 + t.subject.size();
  out.push_back(at);                                // tbs
  out.push_back(at + 4 + 1);                        // run
  out.push_back(at + 4 + 1 + 4 + run);              // issuer
  out.push_back(at + 4 + 1 + 4 + run + 4 + issuer + 8);  // subject digest
  out.push_back(at + 4 + tbs);                      // signature
}

std::vector<std::size_t> message_prefixes(const core::ProtocolMessage& m) {
  std::vector<std::size_t> out;
  std::size_t at = 0;
  out.push_back(at);  // protocol
  at += 4 + m.protocol.size();
  out.push_back(at);  // run
  at += 4 + m.run.str().size() + 4;  // run, step
  out.push_back(at);  // sender
  at += 4 + m.sender.str().size();
  out.push_back(at);  // body
  at += 4 + m.body.size();
  out.push_back(at);  // token count
  at += 4;
  for (const auto& t : m.tokens) {
    out.push_back(at);  // token
    token_prefixes(t, at + 4, out);
    at += 4 + t.encoded_size();
  }
  return out;
}

std::vector<std::size_t> record_prefixes(const store::LogRecord& r) {
  const std::size_t run = r.run.str().size();
  std::vector<std::size_t> out = {0, 4 + 16, 4 + 16 + 4 + run,
                                  4 + 16 + 4 + run + 4 + r.kind.size()};
  out.push_back(4 + r.canonical().size());  // chain digest
  return out;
}

std::vector<std::size_t> certificate_prefixes(const pki::Certificate& c) {
  const std::size_t serial = c.serial.size();
  const std::size_t subject = c.subject.str().size();
  const std::size_t issuer = c.issuer.str().size();
  const std::size_t tbs = c.tbs().size();
  return {0,
          4,
          4 + 4 + serial,
          4 + 4 + serial + 4 + subject,
          4 + 4 + serial + 4 + subject + 4 + issuer + 1,  // public key
          4 + tbs + 1};                                    // issuer signature
}

template <typename Decode>
void expect_hostile_rejected(const Bytes& valid, const std::vector<std::size_t>& prefixes,
                             Decode decode) {
  ASSERT_TRUE(decode(BytesView(valid)).ok());
  for (std::size_t n = 0; n < valid.size(); ++n) {
    // A copy of exactly n bytes, so ASan sees any read past the prefix.
    const Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_FALSE(decode(BytesView(prefix)).ok()) << "prefix of " << n << " bytes";
  }
  for (std::size_t at : prefixes) {
    ASSERT_LE(at + 4, valid.size());
    const std::size_t past_end = valid.size() - (at + 4) + 1;
    for (std::uint64_t claim : {std::uint64_t{past_end}, std::uint64_t{0xffffffffu}}) {
      Bytes hostile = valid;
      for (std::size_t i = 0; i < 4; ++i) {
        hostile[at + i] = static_cast<std::uint8_t>(claim >> (8 * i));
      }
      EXPECT_FALSE(decode(BytesView(hostile)).ok())
          << "length prefix at " << at << " claims " << claim;
    }
  }
}

TEST(HostileBytes, EvidenceTokenDecoder) {
  const core::EvidenceToken t = golden_token();
  std::vector<std::size_t> prefixes;
  token_prefixes(t, 0, prefixes);
  expect_hostile_rejected(t.encode(), prefixes,
                          [](BytesView b) { return core::EvidenceToken::decode(b); });
}

TEST(HostileBytes, ProtocolMessageDecoder) {
  const core::ProtocolMessage m = golden_message();
  expect_hostile_rejected(m.encode(), message_prefixes(m),
                          [](BytesView b) { return core::ProtocolMessage::decode(b); });
}

TEST(HostileBytes, LogRecordDecoder) {
  const store::LogRecord r = golden_record();
  expect_hostile_rejected(store::encode_log_record(r), record_prefixes(r),
                          [](BytesView b) { return store::decode_log_record(b); });
}

TEST(HostileBytes, CertificateDecoder) {
  const pki::Certificate c = golden_certificate();
  expect_hostile_rejected(c.encode(), certificate_prefixes(c),
                          [](BytesView b) { return pki::Certificate::decode(b); });
}

TEST(HostileBytes, ReaderViewsStayInBounds) {
  const Bytes buf = {5, 0, 0, 0, 'a', 'b', 'c'};  // claims 5, holds 3
  BinaryReader r(buf);
  EXPECT_FALSE(r.bytes_view().ok());
  BinaryReader s(buf);
  EXPECT_FALSE(s.str_view().ok());
  const Bytes ok = {3, 0, 0, 0, 'a', 'b', 'c'};
  BinaryReader v(ok);
  auto view = v.str_view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value(), "abc");
  EXPECT_EQ(static_cast<const void*>(view.value().data()), static_cast<const void*>(ok.data() + 4));
  EXPECT_TRUE(v.at_end());
}

}  // namespace
}  // namespace nonrep
