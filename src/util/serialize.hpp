// Canonical binary serialization.
//
// Evidence is signed over a hash of the serialized form, so the encoding
// must be canonical: same logical value => same bytes (§3.4 "agreed
// representation of state"). Fixed little-endian integers and
// length-prefixed buffers give that property.
//
// Exact-size rule: every encoder on the evidence path computes its encoded
// size first (the k*Size constants and prefixed_size() below) and hands it
// to BinaryWriter's constructor, so the buffer is allocated once, at its
// final size, and a retained payload (a log record, a message on the wire)
// carries no slack capacity. A hint that is too small only costs a regrowth;
// the bytes are the same either way.
//
// View lifetimes: BinaryReader's *_view() accessors return spans/string
// views into the buffer the reader was built over. They are valid only as
// long as that buffer is alive and unmodified; a decoder copies what its
// result keeps (bytes()/str() copy exactly once) and uses views for the
// rest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace nonrep {

inline constexpr std::size_t kU8Size = 1;
inline constexpr std::size_t kU32Size = 4;
inline constexpr std::size_t kU64Size = 8;

/// Encoded size of a length-prefixed (u32) field with `n` content bytes.
constexpr std::size_t prefixed_size(std::size_t n) noexcept { return kU32Size + n; }

/// Append-only canonical encoder.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Reserves exactly `size_hint` bytes: pass the encoded size.
  explicit BinaryWriter(std::size_t size_hint) { buf_.reserve(size_hint); }

  void u8(std::uint8_t v) { put_le<1>(v); }
  void u32(std::uint32_t v) { put_le<4>(v); }
  void u64(std::uint64_t v) { put_le<8>(v); }
  /// Length-prefixed (u32) byte string.
  void bytes(BytesView b);
  /// Length-prefixed (u32) text.
  void str(std::string_view s);

  const Bytes& data() const noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    std::uint8_t le[N];
    for (std::size_t i = 0; i < N; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    append(le, N);
  }
  void append(const void* src, std::size_t n);

  Bytes buf_;
};

/// Matching decoder. Every accessor returns an Error on truncation, so a
/// corrupted or hostile message can never read out of bounds.
class BinaryReader {
 public:
  explicit BinaryReader(BytesView b) : buf_(b) {}

  Result<std::uint8_t> u8();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Length-prefixed field, copied out.
  Result<Bytes> bytes();
  Result<std::string> str();
  /// Length-prefixed field as a view into the reader's buffer (see the
  /// lifetime note at the top of this file).
  Result<BytesView> bytes_view();
  Result<std::string_view> str_view();

  bool at_end() const noexcept { return pos_ == buf_.size(); }
  std::size_t remaining() const noexcept { return buf_.size() - pos_; }

 private:
  Result<BytesView> take(std::size_t n);

  BytesView buf_;
  std::size_t pos_ = 0;
};

}  // namespace nonrep
