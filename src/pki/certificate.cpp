#include "pki/certificate.hpp"

#include "util/serialize.hpp"

namespace nonrep::pki {

namespace {

std::size_t tbs_size(const Certificate& c) noexcept {
  return prefixed_size(c.serial.size()) + prefixed_size(c.subject.str().size()) +
         prefixed_size(c.issuer.str().size()) + kU8Size + prefixed_size(c.public_key.size()) +
         kU64Size + kU64Size + kU8Size;
}

void write_tbs(BinaryWriter& w, const Certificate& c) {
  w.str(c.serial);
  w.str(c.subject.str());
  w.str(c.issuer.str());
  w.u8(static_cast<std::uint8_t>(c.algorithm));
  w.bytes(c.public_key);
  w.u64(c.not_before);
  w.u64(c.not_after);
  w.u8(c.is_ca ? 1 : 0);
}

}  // namespace

Bytes Certificate::tbs() const {
  BinaryWriter w(tbs_size(*this));
  write_tbs(w, *this);
  return std::move(w).take();
}

Bytes Certificate::encode() const {
  const std::size_t tbs = tbs_size(*this);
  BinaryWriter w(prefixed_size(tbs) + kU8Size + prefixed_size(issuer_signature.size()));
  w.u32(static_cast<std::uint32_t>(tbs));
  write_tbs(w, *this);
  w.u8(static_cast<std::uint8_t>(issuer_algorithm));
  w.bytes(issuer_signature);
  return std::move(w).take();
}

Result<Certificate> Certificate::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes_view();
  if (!tbs_bytes) return tbs_bytes.error();
  auto issuer_alg = outer.u8();
  if (!issuer_alg) return issuer_alg.error();
  auto sig = outer.bytes_view();
  if (!sig) return sig.error();

  BinaryReader r(tbs_bytes.value());
  Certificate cert;
  auto serial = r.str_view();
  if (!serial) return serial.error();
  cert.serial = serial.value();
  auto subject = r.str_view();
  if (!subject) return subject.error();
  cert.subject = PartyId(std::string(subject.value()));
  auto issuer = r.str_view();
  if (!issuer) return issuer.error();
  cert.issuer = PartyId(std::string(issuer.value()));
  auto alg = r.u8();
  if (!alg) return alg.error();
  cert.algorithm = static_cast<crypto::SigAlgorithm>(alg.value());
  auto key = r.bytes_view();
  if (!key) return key.error();
  cert.public_key.assign(key.value().begin(), key.value().end());
  auto nb = r.u64();
  if (!nb) return nb.error();
  cert.not_before = nb.value();
  auto na = r.u64();
  if (!na) return na.error();
  cert.not_after = na.value();
  auto ca = r.u8();
  if (!ca) return ca.error();
  cert.is_ca = ca.value() != 0;

  cert.issuer_algorithm = static_cast<crypto::SigAlgorithm>(issuer_alg.value());
  cert.issuer_signature.assign(sig.value().begin(), sig.value().end());
  return cert;
}

}  // namespace nonrep::pki
