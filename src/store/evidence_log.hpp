// Hash-chained append-only evidence log (§3.5 "persistence", assumption 3).
//
// "Trusted interceptors have persistent storage for messages (or, more
// precisely, evidence extracted from messages)." Records are chained:
// chain_i = H(chain_{i-1} || record_i), so any later truncation or edit of
// the audit trail is detectable (dispute-resolution requirement, §3.1).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/lock_discipline.hpp"
#include "crypto/sha256.hpp"
#include "journal/ticket.hpp"
#include "obs/metrics.hpp"
#include "store/object_store.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace nonrep::store {

struct LogRecord {
  std::uint64_t sequence = 0;
  TimeMs time = 0;
  RunId run;
  std::string kind;  // e.g. "nro.request", "vote", "decision"
  Bytes payload;     // encoded evidence token or protocol artefact
  crypto::Digest chain{};  // H(prev_chain || canonical record bytes)

  // Trace annotation: the obs::Span open on the appending thread, 0 when
  // none. Runtime-only (not part of canonical(), never persisted) — chain
  // digests and on-disk encodings are byte-identical with tracing on/off.
  std::uint64_t span = 0;

  Bytes canonical() const;  // everything except `chain` and `span`
};

/// What an asynchronous backend append hands back: a future that settles
/// when the record is durable. A synchronous backend returns a default
/// receipt: already settled, ok.
struct AppendReceipt {
  journal::DurableFuture durable;
};

/// Storage backend; MemoryLogBackend for tests/sim, JournalLogBackend
/// (store/journal_backend.hpp) for durable deployments. append() reports
/// persistence failures so the caller can stop treating the record as
/// evidence; append_async() defers the durability half of that report into
/// the receipt's future so callers can overlap verification or protocol
/// work with the device barrier.
class LogBackend {
 public:
  virtual ~LogBackend() = default;
  virtual Status append(const LogRecord& record) = 0;
  virtual std::vector<LogRecord> load() = 0;

  /// Stage the record and return a durability receipt. Default: synchronous
  /// append, already-settled receipt — only journal-backed deployments
  /// pipeline.
  virtual Result<AppendReceipt> append_async(const LogRecord& record) {
    if (auto persisted = append(record); !persisted.ok()) {
      return persisted.error();
    }
    return AppendReceipt{};
  }

  /// First sticky persistence failure, including barriers that failed after
  /// append_async returned. Ok for backends without deferred durability.
  virtual Status health() const { return Status::ok_status(); }

  /// Wait until every staged record is durable. Synchronous backends have
  /// nothing staged: default ok.
  virtual Status sync() { return Status::ok_status(); }
};

/// In-memory backend: persists nothing. EvidenceLog::records_ already holds
/// every record, so keeping a second copy here would double the log's heap
/// for a view that is read once, by EvidenceLog's constructor, before
/// anything is appended. The pre-seeded form (audit tooling, tests) hands
/// its records to that one load() and keeps none.
class MemoryLogBackend final : public LogBackend {
 public:
  MemoryLogBackend() = default;
  explicit MemoryLogBackend(std::vector<LogRecord> records) : seed_(std::move(records)) {}

  Status append(const LogRecord&) override { return Status::ok_status(); }
  std::vector<LogRecord> load() override { return std::exchange(seed_, {}); }

 private:
  std::vector<LogRecord> seed_;
};

/// The party's one in-memory record of what happened: backends persist,
/// they keep no copy, and no object store holds a second copy of a
/// payload. Thread-safe for interleaved append/find: a party may
/// issue evidence from its application thread while its delivery strand
/// logs accepted tokens. records() is the one unlocked accessor — it
/// returns a direct reference for audit tooling and tests, valid only once
/// the party is quiescent (no concurrent appends).
class EvidenceLog {
 public:
  /// The ObjectStore argument is ignored: the log interns nothing. It goes
  /// once the benchmark stops passing World::objects().
  EvidenceLog(std::unique_ptr<LogBackend> backend, std::shared_ptr<Clock> clock,
              std::shared_ptr<ObjectStore> ignored = nullptr);

  /// Append evidence and wait until it is durable; returns the record
  /// including its chain digest. The wait happens outside the log's mutex,
  /// so concurrent appenders and readers are not serialized behind an
  /// fdatasync.
  LogRecord append(const RunId& run, std::string kind, Bytes payload);

  /// Pipelined append: the record is chained and staged, and the receipt's
  /// future settles once it is durable. Protocol code stages with this and
  /// waits once, at the send (barrier()). If the backend refuses to stage
  /// the record, the receipt comes back already settled with that error.
  /// The log keeps the one copy of the record (records()).
  AppendReceipt append_async(const RunId& run, std::string kind, Bytes payload);

  /// Wait for a receipt's barrier (through LogBackend::sync); a failure is
  /// recorded as the log's backend status (first failure sticks) and
  /// returned.
  Status settle(const AppendReceipt& receipt);

  /// The write-ahead barrier a party passes before a protocol message
  /// leaves it: settle() the newest receipt, so every record staged so far
  /// is durable. Memory logs return at once.
  Status barrier();

  std::size_t size() const;
  const std::vector<LogRecord>& records() const noexcept { return records_; }
  std::vector<LogRecord> find_run(const RunId& run) const;
  std::optional<LogRecord> find(const RunId& run, std::string_view kind) const;

  /// Re-computes the chain; detects any tampering of the loaded history.
  Status verify_chain() const;

  /// Total payload bytes held (space-overhead experiments, §6).
  std::uint64_t payload_bytes() const;

  /// First persistence failure, if any: failures reported at append time,
  /// settle() failures, and — via LogBackend::health() — barriers that
  /// failed after an append_async was staged. Records are always kept in
  /// memory so a protocol run can finish; a caller that needs durable
  /// evidence must check this (or the backend's own sync status).
  Status backend_status() const;

 private:
  // append_async, also handing a copy of the record to `copy` when set.
  AppendReceipt stage(const RunId& run, std::string kind, Bytes payload, LogRecord* copy);

  std::unique_ptr<LogBackend> backend_;
  std::shared_ptr<Clock> clock_;
  mutable util::Mutex mu_{util::LockRank::kEvidenceLog, "store.evidence_log"};
  std::vector<LogRecord> records_ NONREP_GUARDED_BY(mu_);
  Status backend_status_ NONREP_GUARDED_BY(mu_);
  AppendReceipt tail_ NONREP_GUARDED_BY(mu_);  // receipt of the newest record
  obs::GaugeShare records_gauge_{"store.log_records"};
  obs::GaugeShare payload_gauge_{"store.log_payload_bytes"};
};

/// Chain digest helper (exposed for tests).
crypto::Digest chain_digest(const crypto::Digest& prev, const LogRecord& record);

/// Canonical wire form of a whole record, chain digest included — the one
/// frame layout the journal backend persists (exposed for it and the audit
/// tool). The decoder accepts only canonical bytes: anything that would not
/// re-encode to the same bytes (trailing bytes inside or after the record)
/// is an error, so a frame either decodes to exactly what was written or
/// counts as damage.
Bytes encode_log_record(const LogRecord& record);
Result<LogRecord> decode_log_record(BytesView b);

}  // namespace nonrep::store
