#include "journal/segment.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/crc32c.hpp"

namespace nonrep::journal {

namespace fs = std::filesystem;

namespace {

Result<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error::make("journal.io", "cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return Error::make("journal.io", "cannot stat " + path);
  in.seekg(0, std::ios::beg);
  Bytes out(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(out.data()), size)) {
    return Error::make("journal.io", "short read on " + path);
  }
  return out;
}

std::uint32_t read_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

Result<Segment::ScanResult> Segment::scan(const std::string& path) {
  auto data = read_file(path);
  if (!data) return data.error();
  const Bytes& buf = data.value();

  ScanResult out;
  out.file_bytes = buf.size();

  auto header = decode_segment_header(buf);
  if (!header) {
    out.defect = header.error();
    return out;
  }
  out.first_sequence = header.value();
  out.valid_bytes = kSegmentHeaderBytes;

  std::uint64_t expected_seq = out.first_sequence;
  std::size_t offset = kSegmentHeaderBytes;
  while (offset < buf.size()) {
    // Zero padding: an all-zero remainder is the segment's clean end.
    if (buf[offset] == 0 &&
        std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(offset), buf.end(),
                    [](std::uint8_t b) { return b == 0; })) {
      break;
    }
    if (buf.size() - offset < kFrameHeaderBytes) {
      out.defect = Error::make("journal.torn_frame",
                               "partial frame header at offset " + std::to_string(offset));
      break;
    }
    const std::uint32_t body_len = read_u32le(buf.data() + offset);
    const std::uint32_t stored_crc = read_u32le(buf.data() + offset + 4);
    if (body_len == 0) {
      out.defect = Error::make("journal.dirty_padding",
                               "non-zero byte in the zero padding from offset " +
                                   std::to_string(offset));
      break;
    }
    if (body_len < kRecordPrefixBytes || body_len > kMaxBodyBytes) {
      out.defect = Error::make("journal.bad_length",
                               "frame length " + std::to_string(body_len) +
                                   " at offset " + std::to_string(offset));
      break;
    }
    if (buf.size() - offset - kFrameHeaderBytes < body_len) {
      out.defect = Error::make("journal.torn_frame",
                               "partial frame body at offset " + std::to_string(offset));
      break;
    }
    const BytesView body(buf.data() + offset + kFrameHeaderBytes, body_len);
    if (crc32c(body) != stored_crc) {
      out.defect = Error::make("journal.bad_crc",
                               "checksum mismatch at offset " + std::to_string(offset));
      break;
    }

    if (body[0] != static_cast<std::uint8_t>(RecordType::kData)) {
      out.defect = Error::make("journal.bad_type",
                               "unknown record type at offset " + std::to_string(offset));
      break;
    }
    Record rec;
    rec.sequence = read_u64le(body.data() + 1);
    if (rec.sequence != expected_seq) {
      out.defect = Error::make("journal.sequence_gap",
                               "expected sequence " + std::to_string(expected_seq) +
                                   ", found " + std::to_string(rec.sequence));
      break;
    }
    ++expected_seq;
    rec.payload.assign(body.begin() + kRecordPrefixBytes, body.end());

    out.records.push_back(std::move(rec));
    offset += kFrameHeaderBytes + body_len;
    out.valid_bytes = offset;
  }
  std::size_t end = buf.size();
  while (end > out.valid_bytes && buf[end - 1] == 0) --end;
  out.padding_bytes = buf.size() - end;
  return out;
}

Result<std::vector<std::string>> Segment::list(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Error::make("journal.io", "not a directory: " + dir);
  }
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    auto seq = parse_segment_filename(entry.path().filename().string());
    if (seq) found.emplace_back(seq.value(), entry.path().string());
  }
  if (ec) return Error::make("journal.io", "cannot list " + dir + ": " + ec.message());
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

}  // namespace nonrep::journal
