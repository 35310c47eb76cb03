#include "tsa/timestamp.hpp"

#include "util/serialize.hpp"

namespace nonrep::tsa {

namespace {

std::size_t tbs_size(const TimestampToken& t) noexcept {
  return prefixed_size(t.authority.str().size()) + prefixed_size(t.subject_digest.size()) +
         kU64Size;
}

void write_tbs(BinaryWriter& w, const TimestampToken& t) {
  w.str(t.authority.str());
  w.bytes(t.subject_digest);
  w.u64(t.time);
}

}  // namespace

Bytes TimestampToken::tbs() const {
  BinaryWriter w(tbs_size(*this));
  write_tbs(w, *this);
  return std::move(w).take();
}

Bytes TimestampToken::encode() const {
  const std::size_t tbs = tbs_size(*this);
  BinaryWriter w(prefixed_size(tbs) + prefixed_size(signature.size()));
  w.u32(static_cast<std::uint32_t>(tbs));
  write_tbs(w, *this);
  w.bytes(signature);
  return std::move(w).take();
}

Result<TimestampToken> TimestampToken::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes_view();
  if (!tbs_bytes) return tbs_bytes.error();
  auto sig = outer.bytes_view();
  if (!sig) return sig.error();

  BinaryReader r(tbs_bytes.value());
  TimestampToken token;
  auto auth = r.str_view();
  if (!auth) return auth.error();
  token.authority = PartyId(std::string(auth.value()));
  auto digest = r.bytes_view();
  if (!digest) return digest.error();
  if (!crypto::digest_from_bytes(digest.value(), token.subject_digest)) {
    return Error::make("tsa.bad_digest", "wrong digest length");
  }
  auto t = r.u64();
  if (!t) return t.error();
  token.time = t.value();
  token.signature.assign(sig.value().begin(), sig.value().end());
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
