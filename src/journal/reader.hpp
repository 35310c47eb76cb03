// Read side of the durable evidence journal: one scan that serves crash
// recovery and the structural half of an audit.
//
// Recovery semantics (§3.5 persistence + dispute-resolution requirements):
// segments are scanned in sequence order; every record up to the first
// defect is kept, everything after it is rejected. Zero padding after a
// segment's last frame is its clean end, not a defect. In repair mode a
// defect a crash can leave (journal.torn_frame, journal.bad_crc,
// journal.bad_length, journal.dirty_padding) at the tail of the *last*
// segment is treated as a torn write and truncated so a Writer can resume. Any other defect — a
// CRC-valid frame out of sequence or of an unknown type, or damage anywhere
// else — is never papered over: the journal stays read-only until an
// operator (or the audit tool) has looked at it. A scan-only recovery that
// comes back `clean` is the structural audit: every header and frame CRC
// holds and sequence numbers run without a gap across all segments. Whether
// the records are genuine evidence is the hash chain's question
// (store::EvidenceLog::verify_chain).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "journal/segment.hpp"

namespace nonrep::journal {

struct SegmentStatus {
  std::string path;
  std::uint64_t first_sequence = 0;
  std::uint64_t data_records = 0;
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t padding_bytes = 0;  // trailing zeros after the valid bytes
  std::optional<Error> defect;
};

struct RecoveryReport {
  /// Every valid data record across all segments, in sequence order.
  std::vector<Record> records;
  std::vector<SegmentStatus> segments;
  /// Sequence the next append must use.
  std::uint64_t next_sequence = 0;
  /// Torn bytes removed by repair (torn tail frames); zero padding cut
  /// with them is not counted.
  std::uint64_t truncated_bytes = 0;
  /// False when any defect was found (even one repaired away).
  bool clean = true;
  /// True when a Writer may append again: either the journal was clean, or
  /// the only defect was a torn tail that repair removed. Any other damage
  /// leaves the journal read-only.
  bool resumable = true;
  /// Set when the final segment ends on a frame boundary, optionally
  /// followed by zero padding, so a resuming Writer continues it in place
  /// after its last frame.
  std::optional<std::string> tail_path;
  std::uint64_t tail_valid_bytes = 0;
};

enum class RecoverMode : std::uint8_t {
  kScanOnly = 0,  // never writes; audit tool / read paths
  kRepair = 1,    // truncate torn tails of the last segment
};

class Reader {
 public:
  /// Scan the whole journal. An empty or missing directory recovers to an
  /// empty journal (next_sequence 0). Only I/O errors fail the call.
  static Result<RecoveryReport> recover(const std::string& dir, RecoverMode mode);
};

}  // namespace nonrep::journal
