#include "journal/format.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/crc32c.hpp"
#include "util/serialize.hpp"

namespace nonrep::journal {

std::string segment_filename(std::uint64_t first_sequence) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "seg-%020" PRIu64 ".wal", first_sequence);
  return buf;
}

Result<std::uint64_t> parse_segment_filename(std::string_view name) {
  constexpr std::string_view prefix = "seg-";
  constexpr std::string_view suffix = ".wal";
  if (name.size() != prefix.size() + 20 + suffix.size() ||
      name.substr(0, prefix.size()) != prefix ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return Error::make("journal.bad_segment_name", std::string(name));
  }
  std::uint64_t seq = 0;
  for (char c : name.substr(prefix.size(), 20)) {
    if (c < '0' || c > '9') {
      return Error::make("journal.bad_segment_name", std::string(name));
    }
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

Bytes encode_segment_header(std::uint64_t first_sequence) {
  BinaryWriter w;
  w.u32(kSegmentMagic);
  w.u32(kFormatVersion);
  w.u64(first_sequence);
  w.u64(0);  // reserved
  w.u32(crc32c(w.data()));
  return std::move(w).take();
}

Result<std::uint64_t> decode_segment_header(BytesView b) {
  if (b.size() < kSegmentHeaderBytes) {
    return Error::make("journal.torn_header", "segment shorter than its header");
  }
  BinaryReader r(b.subspan(0, kSegmentHeaderBytes));
  const std::uint32_t magic = r.u32().value();
  const std::uint32_t version = r.u32().value();
  const std::uint64_t first = r.u64().value();
  (void)r.u64();  // reserved
  const std::uint32_t stored_crc = r.u32().value();
  if (crc32c(b.subspan(0, kSegmentHeaderBytes - 4)) != stored_crc) {
    return Error::make("journal.bad_header_crc", "segment header checksum mismatch");
  }
  if (magic != kSegmentMagic) {
    return Error::make("journal.bad_magic", "not a journal segment");
  }
  if (version != kFormatVersion) {
    return Error::make("journal.bad_version",
                       "unsupported format version " + std::to_string(version));
  }
  return first;
}

Bytes encode_frame(RecordType type, std::uint64_t sequence, BytesView payload) {
  const std::size_t body_len = kRecordPrefixBytes + payload.size();
  Bytes body;
  body.reserve(body_len);
  body.push_back(static_cast<std::uint8_t>(type));
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<std::uint8_t>(sequence >> (8 * i)));
  }
  append(body, payload);

  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(body_len));
  w.u32(crc32c(body));
  Bytes frame = std::move(w).take();
  append(frame, body);
  return frame;
}

}  // namespace nonrep::journal
