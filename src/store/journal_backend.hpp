// Journal-backed evidence persistence (§3.5, assumption 3).
//
// One write-ahead journal per party, one frame layout: every record is
// persisted as its self-contained encoding (encode_log_record — canonical
// bytes, payload included, plus chain digest) inside the segmented journal,
// gaining CRC-checked framing, group commit, segment rotation, and crash
// recovery that truncates torn tails and resumes sequence numbering. A
// staged record is written at once; the party requests and waits for its
// barrier at the send (EvidenceLog::barrier). Because a frame carries its own payload,
// the barrier that makes a record durable covers its evidence too: there is
// no second log to order against and no reference that can dangle after a
// crash.
//
// In memory a record's payload lives only in the party's EvidenceLog:
// neither this backend nor an object store keeps a copy. open() decodes the
// recovered frames once and load() hands them to the log.
#pragma once

#include "journal/reader.hpp"
#include "journal/writer.hpp"
#include "store/evidence_log.hpp"

namespace nonrep::store {

class JournalLogBackend final : public LogBackend {
 public:
  /// Opens the journal at options.dir, running crash recovery (repair mode:
  /// torn tails are truncated) before the writer resumes. A directory laid
  /// out by an older build with a separate `objects/` payload journal is
  /// refused ("journal.unsupported_format"). So is a journal holding a
  /// CRC-valid frame that does not decode as a log record
  /// ("journal.undecodable_record"): like damage beyond a torn tail
  /// ("journal.unrecoverable"), it is left for an audit, not written to.
  /// The store argument is ignored; it stays only until the benchmark's
  /// call sites drop it.
  static Result<std::unique_ptr<JournalLogBackend>> open(
      journal::Options options, std::shared_ptr<ObjectStore> store = nullptr);

  /// append_async, then wait until the record is durable.
  Status append(const LogRecord& record) override;
  /// The record frame is written; the receipt's future settles when a
  /// barrier covering it retires (waiting on it requests one).
  Result<AppendReceipt> append_async(const LogRecord& record) override;
  /// The records recovered at open, handed over once (later calls return
  /// none), as MemoryLogBackend does.
  std::vector<LogRecord> load() override;
  /// Sticky journal failures, including barriers retired after append_async
  /// returned.
  Status health() const override;

  /// Waits until every staged record is durable.
  Status sync() override;

  journal::Writer& writer() noexcept { return *writer_; }
  /// Always nullptr: there is no second journal. Stays only until the
  /// benchmark drops its call.
  journal::Writer* object_writer() noexcept { return nullptr; }
  /// What recovery found at open: segments, repairs, next sequence. Its
  /// `records` is empty — the decoded records went to load().
  const journal::RecoveryReport& recovery() const noexcept { return recovery_; }

 private:
  JournalLogBackend(std::unique_ptr<journal::Writer> writer,
                    journal::RecoveryReport recovery, std::vector<LogRecord> records)
      : writer_(std::move(writer)),
        recovery_(std::move(recovery)),
        records_(std::move(records)) {}

  std::unique_ptr<journal::Writer> writer_;
  journal::RecoveryReport recovery_;
  std::vector<LogRecord> records_;  // until load()
};

}  // namespace nonrep::store
