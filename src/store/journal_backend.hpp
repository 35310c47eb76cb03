// Journal-backed evidence persistence (§3.5, assumption 3).
//
// One write-ahead journal per party, one frame layout: every record is
// persisted as its self-contained encoding (encode_log_record — canonical
// bytes, payload included, plus chain digest) inside the segmented journal,
// gaining CRC-checked framing, group commit, segment rotation with Merkle
// checkpoints, and crash recovery that truncates torn tails and resumes
// sequence numbering. Every staged record has its barrier requested at once;
// the party waits for it at the send (EvidenceLog::barrier). Because a frame carries its own payload, the barrier
// that makes a record durable covers its evidence too: there is no second
// log to order against and no reference that can dangle after a crash.
//
// In memory a record's payload lives only in the party's EvidenceLog:
// neither this backend nor an object store keeps a copy.
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
  /// refused ("journal.unsupported_format"). The store argument is ignored;
  /// it stays only until the benchmark's call sites drop it.
  static Result<std::unique_ptr<JournalLogBackend>> open(
      journal::Options options, std::shared_ptr<ObjectStore> store = nullptr);

  /// append_async, then wait until the record is durable.
  Status append(const LogRecord& record) override;
  /// The record frame is written and its barrier requested; the receipt's
  /// future settles when that barrier retires.
  Result<AppendReceipt> append_async(const LogRecord& record) override;
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
  const journal::RecoveryReport& recovery() const noexcept { return recovery_; }

 private:
  JournalLogBackend(std::unique_ptr<journal::Writer> writer,
                    journal::RecoveryReport recovery)
      : writer_(std::move(writer)), recovery_(std::move(recovery)) {}

  std::unique_ptr<journal::Writer> writer_;
  journal::RecoveryReport recovery_;
};

}  // namespace nonrep::store
