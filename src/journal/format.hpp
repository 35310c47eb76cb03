// On-disk format of the durable evidence journal (§3.5 persistence).
//
// A journal is a directory of append-only segment files:
//
//   seg-00000000000000000000.wal     first data sequence 0
//   seg-00000000000000000147.wal     first data sequence 147
//   ...
//
// Each segment starts with a fixed header and is followed by length-prefixed
// record frames, then optionally by zero padding:
//
//   segment = header | frame* | 0x00*
//
//   segment header (28 bytes)
//   +--------+---------+-----------+----------+------------+
//   | magic  | version | first_seq | reserved | header CRC |
//   |  u32   |  u32    |   u64     |   u64    |    u32     |
//   +--------+---------+-----------+----------+------------+
//
//   record frame (8-byte frame header + body)
//   +----------+----------+------  body  ---------------------+
//   | body_len | body CRC | type u8 | sequence u64 | payload  |
//   |   u32    |  u32C    |         |              |          |
//   +----------+----------+---------------------------------- +
//
// All integers are little-endian. The CRC is CRC32C over the body, so a torn
// or bit-flipped frame is detected by a plain forward scan with no crypto.
//
// Padding rule: the writer keeps its active segment zero-filled ahead of the
// next frame (journal/writer.hpp), so the bytes after the last frame may be
// zeros. A scan that reaches a frame boundary and finds only zero bytes up
// to the end of the file has reached the segment's clean end; no frame can
// start with a zero length. Zeros followed by any non-zero byte are damage
// a crash can leave (journal.dirty_padding). A crash leaves the padding on
// disk; rotation and close() cut a segment back to its last frame.
// Frames carry consecutive sequence numbers, within a segment and across
// segments, so a dropped, reordered or cut-off frame shows as a gap. That is
// all the framing checks: whether a frame's *content* is genuine evidence is
// the hash chain's job (store/evidence_log.hpp), which the payload carries.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

inline constexpr std::uint32_t kSegmentMagic = 0x4c4a524eu;  // "NRJL" on disk
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 28;
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// type byte + sequence, prepended to every payload inside the body.
inline constexpr std::size_t kRecordPrefixBytes = 9;
/// Upper bound on a single body; a length field beyond this is corruption,
/// not a large record, so the scanner never allocates from a wild length.
inline constexpr std::uint64_t kMaxBodyBytes = 64ull << 20;

/// The one record type. Any other type byte is damage (journal.bad_type).
enum class RecordType : std::uint8_t {
  kData = 1,
};

/// One decoded journal record (frame body minus the framing).
struct Record {
  std::uint64_t sequence = 0;
  Bytes payload;
};

/// Segment file name for a given first sequence ("seg-<20 digits>.wal").
std::string segment_filename(std::uint64_t first_sequence);
/// Inverse of segment_filename; error if the name is not a segment name.
Result<std::uint64_t> parse_segment_filename(std::string_view name);

Bytes encode_segment_header(std::uint64_t first_sequence);
/// Validates magic/version/CRC; returns first_sequence.
Result<std::uint64_t> decode_segment_header(BytesView b);

/// Full frame (header + body) ready to append to a segment.
Bytes encode_frame(RecordType type, std::uint64_t sequence, BytesView payload);

}  // namespace nonrep::journal
