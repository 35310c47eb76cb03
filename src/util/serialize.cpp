#include "util/serialize.hpp"

#include <cstring>

namespace nonrep {

void BinaryWriter::append(const void* src, std::size_t n) {
  if (n == 0) return;
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  std::memcpy(buf_.data() + at, src, n);
}

void BinaryWriter::bytes(BytesView b) {
  u32(static_cast<std::uint32_t>(b.size()));
  append(b.data(), b.size());
}

void BinaryWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

Result<BytesView> BinaryReader::take(std::size_t n) {
  if (remaining() < n) {
    return Error::make("serialize.truncated",
                       "needed " + std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()));
  }
  BytesView out = buf_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::uint8_t> BinaryReader::u8() {
  auto r = take(1);
  if (!r) return r.error();
  return r.value()[0];
}

Result<std::uint32_t> BinaryReader::u32() {
  auto r = take(4);
  if (!r) return r.error();
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(r.value()[i]) << (8 * i);
  return v;
}

Result<std::uint64_t> BinaryReader::u64() {
  auto r = take(8);
  if (!r) return r.error();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(r.value()[i]) << (8 * i);
  return v;
}

Result<BytesView> BinaryReader::bytes_view() {
  auto len = u32();
  if (!len) return len.error();
  return take(len.value());
}

Result<std::string_view> BinaryReader::str_view() {
  auto b = bytes_view();
  if (!b) return b.error();
  return std::string_view(reinterpret_cast<const char*>(b.value().data()), b.value().size());
}

Result<Bytes> BinaryReader::bytes() {
  auto b = bytes_view();
  if (!b) return b.error();
  return Bytes(b.value().begin(), b.value().end());
}

Result<std::string> BinaryReader::str() {
  auto s = str_view();
  if (!s) return s.error();
  return std::string(s.value());
}

}  // namespace nonrep
