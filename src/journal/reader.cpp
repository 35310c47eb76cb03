#include "journal/reader.hpp"

#include <filesystem>

#include <unistd.h>

namespace nonrep::journal {

namespace fs = std::filesystem;

namespace {

// Defects a crash can leave at the end of the final segment: a frame cut
// short, one whose bytes never all reached the disk, or a later page of
// frames that reached it before an earlier one (non-zero bytes after zero
// padding). A CRC-valid frame in the wrong place (journal.sequence_gap,
// journal.bad_type) is no crash's doing, so repair never truncates it away.
bool crash_shaped(const Error& defect) {
  return defect.code == "journal.torn_frame" || defect.code == "journal.bad_crc" ||
         defect.code == "journal.bad_length" || defect.code == "journal.dirty_padding";
}

Status truncate_file(const std::string& path, std::uint64_t to_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(to_bytes)) != 0) {
    return Error::make("journal.io", "truncate failed on " + path);
  }
  return Status::ok_status();
}

}  // namespace

Result<RecoveryReport> Reader::recover(const std::string& dir, RecoverMode mode) {
  RecoveryReport report;

  std::error_code ec;
  if (!fs::exists(dir, ec)) return report;  // empty journal
  auto segments = Segment::list(dir);
  if (!segments) return segments.error();

  bool stopped = false;  // defect found: reject everything after it
  for (std::size_t i = 0; i < segments.value().size(); ++i) {
    const std::string& path = segments.value()[i];
    const bool last = i + 1 == segments.value().size();
    if (stopped) {
      report.clean = false;
      SegmentStatus st;
      st.path = path;
      st.defect = Error::make("journal.after_defect",
                              "segment follows a defective predecessor");
      report.segments.push_back(std::move(st));
      continue;
    }

    auto scanned = Segment::scan(path);
    if (!scanned) return scanned.error();
    Segment::ScanResult& scan = scanned.value();

    SegmentStatus st;
    st.path = path;
    st.first_sequence = scan.first_sequence;
    st.valid_bytes = scan.valid_bytes;
    st.file_bytes = scan.file_bytes;
    st.padding_bytes = scan.padding_bytes;
    st.defect = scan.defect;

    // Cross-segment continuity: a segment must pick up exactly where the
    // previous one left off. Checked whenever the header parsed — even on a
    // segment with its own tail defect — so a vanished middle segment can
    // never splice later records after the gap.
    if (scan.valid_bytes >= kSegmentHeaderBytes &&
        scan.first_sequence != report.next_sequence) {
      st.defect = Error::make("journal.sequence_gap",
                              "segment starts at " + std::to_string(scan.first_sequence) +
                                  ", expected " + std::to_string(report.next_sequence));
      scan.records.clear();  // nothing in this segment can be trusted
      st.valid_bytes = 0;
    }

    st.data_records = scan.records.size();
    if (!scan.records.empty()) report.next_sequence = scan.records.back().sequence + 1;
    for (auto& rec : scan.records) report.records.push_back(std::move(rec));

    if (st.defect.has_value()) {
      report.clean = false;
      stopped = true;
      // A torn tail on the last segment is the expected crash signature;
      // repair truncates it, with any zero padding, so the journal is
      // appendable again; truncated_bytes counts the torn bytes only, never
      // the trailing zeros. A file cut short inside its own header holds
      // nothing and is removed. Anything else (mid-journal damage, a
      // misplaced CRC-valid frame, a cross-segment gap, a corrupted header
      // over real data) is preserved for inspection and leaves the journal
      // read-only.
      bool repaired = false;
      if (mode == RecoverMode::kRepair && last) {
        if (st.valid_bytes >= kSegmentHeaderBytes && st.file_bytes > st.valid_bytes &&
            crash_shaped(*st.defect)) {
          auto truncated = truncate_file(path, st.valid_bytes);
          if (!truncated.ok()) return truncated.error();
          report.truncated_bytes += st.file_bytes - st.valid_bytes - st.padding_bytes;
          st.file_bytes = st.valid_bytes;
          st.padding_bytes = 0;
          repaired = true;
        } else if (st.file_bytes < kSegmentHeaderBytes) {
          std::error_code rm_ec;
          if (!fs::remove(path, rm_ec) || rm_ec) {
            return Error::make("journal.io", "cannot remove torn segment " + path);
          }
          report.truncated_bytes += st.file_bytes;
          st.file_bytes = 0;
          st.valid_bytes = 0;
          repaired = true;
        }
      }
      if (!repaired) report.resumable = false;
    }

    if (last && st.valid_bytes >= kSegmentHeaderBytes &&
        st.file_bytes == st.valid_bytes + st.padding_bytes) {
      report.tail_path = path;
      report.tail_valid_bytes = st.valid_bytes;
    }
    report.segments.push_back(std::move(st));
  }
  return report;
}

}  // namespace nonrep::journal
