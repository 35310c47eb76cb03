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

  // Object-store annotation, set when the payload has been interned. Not
  // part of canonical() — the chain binds the payload bytes themselves, so
  // chain digests are identical whether or not a store is attached.
  ObjectId object{};
  bool interned = false;

  // Trace annotation: the obs::Span open on the appending thread, 0 when
  // none. Runtime-only (not part of canonical(), never persisted) — chain
  // digests and on-disk encodings are byte-identical with tracing on/off.
  std::uint64_t span = 0;

  Bytes canonical() const;  // everything except `chain` and the annotation
};

/// What an asynchronous backend append hands back: a future that settles
/// when the record is durable, and whether the backend's sync policy would
/// classically have blocked here (kEveryRecord — the caller that wants the
/// old contract waits; one that can overlap work with the barrier doesn't).
/// A synchronous backend returns a default receipt: already settled, ok.
struct AppendReceipt {
  journal::DurableFuture durable;
  bool policy_blocks = false;
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

  /// Force staged-but-unbarriered records onto the device and wait. Batched
  /// and timed journal policies only queue barriers when traffic triggers
  /// them, so a receipt holder that needs durability *now* syncs first.
  /// Synchronous backends have nothing staged: default ok.
  virtual Status sync() { return Status::ok_status(); }
};

class MemoryLogBackend final : public LogBackend {
 public:
  MemoryLogBackend() = default;
  /// Pre-seeded view over already-loaded records (audit tooling).
  explicit MemoryLogBackend(std::vector<LogRecord> records)
      : records_(std::move(records)) {}

  Status append(const LogRecord& record) override {
    records_.push_back(record);
    return Status::ok_status();
  }
  std::vector<LogRecord> load() override { return records_; }

 private:
  std::vector<LogRecord> records_;
};

/// Thread-safe for interleaved append/find: a party may issue evidence
/// from its application thread while its delivery strand logs accepted
/// tokens. records() is the one unlocked accessor — it returns a direct
/// reference for audit tooling and tests, valid only once the party is
/// quiescent (no concurrent appends).
class EvidenceLog {
 public:
  /// With `objects` set, every appended (and every loaded-but-uninterned)
  /// payload is interned into the store under typesig_for_kind(kind), and
  /// records carry their object id. The store may be shared across logs —
  /// identical tokens dedup fleet-wide.
  EvidenceLog(std::unique_ptr<LogBackend> backend, std::shared_ptr<Clock> clock,
              std::shared_ptr<ObjectStore> objects = nullptr);

  /// Append evidence; returns the record including its chain digest. When
  /// the backend's policy demands per-record durability the call waits for
  /// the barrier — but outside the log's mutex, so concurrent appenders and
  /// readers are no longer serialized behind an fdatasync.
  LogRecord append(const RunId& run, std::string kind, Bytes payload);

  /// Pipelined append: the record is chained and staged, and the receipt's
  /// future settles once it is durable. Protocol code stages with this and
  /// waits once, at the send (barrier()). If the backend refuses to stage
  /// the record, the receipt comes back already settled with that error.
  std::pair<LogRecord, AppendReceipt> append_async(const RunId& run, std::string kind,
                                                   Bytes payload);

  /// Wait for a receipt's barrier; a failure is recorded as the log's
  /// backend status (first failure sticks) and returned.
  Status settle(const AppendReceipt& receipt);

  /// The write-ahead barrier a party passes before a protocol message
  /// leaves it: wait until every record staged so far is durable. It
  /// settle()s the newest receipt when that receipt's policy_blocks is set
  /// (kEveryRecord) or it has already failed; batched and timed policies,
  /// and memory logs, return at once.
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

  /// The attached object store (nullptr when running without interning).
  const std::shared_ptr<ObjectStore>& objects() const noexcept { return objects_; }

 private:
  std::unique_ptr<LogBackend> backend_;
  std::shared_ptr<Clock> clock_;
  std::shared_ptr<ObjectStore> objects_;
  mutable util::Mutex mu_{util::LockRank::kEvidenceLog, "store.evidence_log"};
  std::vector<LogRecord> records_ NONREP_GUARDED_BY(mu_);
  std::uint64_t payload_bytes_ NONREP_GUARDED_BY(mu_) = 0;
  Status backend_status_ NONREP_GUARDED_BY(mu_);
  AppendReceipt tail_ NONREP_GUARDED_BY(mu_);  // receipt of the newest record
};

/// Chain digest helper (exposed for tests).
crypto::Digest chain_digest(const crypto::Digest& prev, const LogRecord& record);

/// Canonical wire form of a whole record, chain digest included — the one
/// frame layout the journal backend persists (exposed for it and the audit
/// tool).
Bytes encode_log_record(const LogRecord& record);
Result<LogRecord> decode_log_record(BytesView b);

/// Object typesig for a record kind: "token.*" payloads are evidence
/// tokens, "tsa.*" are TSA countersignatures, anything else is an untyped
/// blob. Used by EvidenceLog interning; exposed so tools that rebuild a
/// store from a journal file payloads the same way.
std::uint32_t typesig_for_kind(std::string_view kind);

}  // namespace nonrep::store
