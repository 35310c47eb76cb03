// One journal segment file: naming and forward scan.
//
// Segment::scan is the single source of truth for "how far is this file
// valid": recovery, and through it the writer's resume path and the audit
// tool, consume its result. The scan walks frames front to back, stops at
// the first frame that fails a bounds, CRC, type or sequence check, and
// reports how many bytes were valid — the caller decides whether what
// follows is a torn tail to truncate (crash recovery on the last segment)
// or corruption to reject (audit, or damage in the middle of the journal).
// Where a frame would start, an all-zero remainder is the writer's zero
// padding and ends the scan cleanly; zeros followed by any non-zero byte are
// journal.dirty_padding, a defect a crash can leave.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "journal/format.hpp"

namespace nonrep::journal {

class Segment {
 public:
  struct ScanResult {
    std::uint64_t first_sequence = 0;
    std::vector<Record> records;    // valid frames, in file order
    std::uint64_t valid_bytes = 0;  // header + fully valid frames
    std::uint64_t file_bytes = 0;
    std::uint64_t padding_bytes = 0;  // trailing zeros after the valid bytes
    std::optional<Error> defect;    // why the scan stopped early
    bool clean() const { return !defect.has_value(); }
  };

  static std::string filename(std::uint64_t first_sequence) {
    return segment_filename(first_sequence);
  }

  /// Scan `path` front to back. Only I/O failures produce an error return;
  /// malformed content is reported in ScanResult::defect with everything
  /// before it preserved.
  static Result<ScanResult> scan(const std::string& path);

  /// Segment files in `dir`, sorted by first sequence. Non-segment files are
  /// ignored.
  static Result<std::vector<std::string>> list(const std::string& dir);
};

}  // namespace nonrep::journal
