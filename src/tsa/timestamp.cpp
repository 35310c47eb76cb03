#include "tsa/timestamp.hpp"

#include "util/serialize.hpp"

namespace nonrep::tsa {

Bytes TimestampToken::tbs() const {
  BinaryWriter w;
  w.str(authority.str());
  w.bytes(crypto::digest_bytes(subject_digest));
  w.u64(time);
  return std::move(w).take();
}

Bytes TimestampToken::encode() const {
  BinaryWriter w;
  w.bytes(tbs());
  w.bytes(signature);
  return std::move(w).take();
}

Result<TimestampToken> TimestampToken::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes();
  if (!tbs_bytes) return tbs_bytes.error();
  auto sig = outer.bytes();
  if (!sig) return sig.error();

  BinaryReader r(tbs_bytes.value());
  TimestampToken token;
  auto auth = r.str();
  if (!auth) return auth.error();
  token.authority = PartyId(auth.value());
  auto digest = r.bytes();
  if (!digest) return digest.error();
  if (!crypto::digest_from_bytes(digest.value(), token.subject_digest)) {
    return Error::make("tsa.bad_digest", "wrong digest length");
  }
  auto t = r.u64();
  if (!t) return t.error();
  token.time = t.value();
  token.signature = sig.value();
  return token;
}

Result<TimestampToken> TimestampAuthority::stamp(BytesView data) {
  TimestampToken token;
  token.authority = id_;
  token.subject_digest = crypto::Sha256::hash(data);
  token.time = clock_->now();
  auto sig = signer_->sign(token.tbs());
  if (!sig) return sig.error();
  token.signature = std::move(sig).take();
  return token;
}

Status verify_timestamp(const TimestampToken& token, BytesView original_data,
                        const pki::CredentialManager& credentials,
                        TimeMs verification_time) {
  const crypto::Digest expected = crypto::Sha256::hash(original_data);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()),
                           BytesView(token.subject_digest.data(),
                                     token.subject_digest.size()))) {
    return Error::make("tsa.digest_mismatch", "token does not cover this data");
  }
  auto verified = credentials.verify_signature(token.authority, token.tbs(), token.signature,
                                               verification_time);
  if (!verified) return verified.error();
  return Status::ok_status();
}

}  // namespace nonrep::tsa
