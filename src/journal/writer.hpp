// Append side of the durable evidence journal — group commit with a
// future-based durability API.
//
// A Writer owns one journal directory and appends data records with
// monotonically increasing sequence numbers. There is one commit rule:
// append_async() writes the record's frame to the OS, asks the sync stage
// (journal/sync_stage.hpp) for a device barrier covering it, and returns an
// AppendTicket at once. The stage retires barriers off-thread with
// fdatasync and settles tickets in LSN order; a request made while a
// barrier is in flight widens the one queued behind it, so however many
// records arrive during an fdatasync, they all ride the next one.
//
// Callers wait only where they need durability: on a ticket, through
// wait_durable()/sync(), or in close(). append() is append_async() plus that
// wait. The evidence layer stages with append_async() and waits once per
// outgoing protocol message (the write-ahead rule at the send).
//
// When a segment reaches segment_max_bytes the writer drains the sync stage
// (no queued fdatasync may outlive its fd), closes the segment, and creates
// the next one, making its name durable (directory fsync) before any record
// lands in it. close() (and the destructor) drain and close the active
// segment the same way and leave it open-ended: the next open() continues
// it in place. A clean close and a crash after the last barrier retired
// leave the same bytes on disk.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/lock_discipline.hpp"
#include "journal/format.hpp"
#include "journal/ticket.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

struct RecoveryReport;  // reader.hpp
class SyncStage;        // sync_stage.hpp

/// Has the one value below until perfbench/fxbench.cpp stops setting
/// `Options::sync`; then the enum and the field go.
enum class SyncPolicy : std::uint8_t {
  kEveryRecord = 0,
};

struct Options {
  std::string dir;
  std::uint64_t segment_max_bytes = 4ull << 20;
  SyncPolicy sync = SyncPolicy::kEveryRecord;  // the only policy; see SyncPolicy
};

class Writer {
 public:
  /// Opens (creating the directory if needed) and recovers the journal tail:
  /// torn bytes after the last valid frame of the final segment are
  /// truncated, sequence numbering resumes after the last durable record,
  /// and the final segment is continued in place.
  static Result<std::unique_ptr<Writer>> open(Options options);

  /// Same, reusing an already-computed repair-mode recovery report so a
  /// caller that just loaded the journal does not scan it twice.
  static Result<std::unique_ptr<Writer>> resume(Options options,
                                                const RecoveryReport& report);

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Writes one data record to the OS and requests the barrier covering it,
  /// without waiting for that barrier; returns its ticket. The record is
  /// durable once ticket.durable settles ok (the future stays valid after
  /// close/crash). Thread-safe.
  Result<AppendTicket> append_async(BytesView payload);

  /// append_async, then wait until the record is durable. Returns the
  /// sequence number.
  Result<std::uint64_t> append(BytesView payload);

  /// Block until every record up to `lsn` (AppendTicket::lsn) is durable.
  Status wait_durable(std::uint64_t lsn);

  /// A waitable future for `lsn`; durable_future(0) is already settled.
  DurableFuture durable_future(std::uint64_t lsn) const;

  /// Waits until everything appended so far is on the device (every append
  /// already requested its barrier).
  Status sync();

  /// Waits until every appended record is durable, closes the active
  /// segment and stops the writer. Idempotent; also run by the destructor.
  Status close();

  /// Test hook: abandon queued barriers and the fd without syncing — the
  /// on-disk state is exactly what a crash would leave. Outstanding tickets
  /// whose barrier never retired settle with journal.crashed;
  /// already-durable tickets stay ok.
  void simulate_crash();

  std::uint64_t next_sequence() const;

  /// First sticky failure (append-path I/O or sync-stage barrier), if any.
  Status health() const;

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t syncs = 0;      // device barriers retired
    std::uint64_t rotations = 0;
    std::uint64_t coalesced_barriers = 0;  // requests folded into a queued one
    std::uint64_t ticket_waits = 0;        // DurableFuture::wait blocks
    std::uint64_t ticket_wait_ns = 0;      // total ns spent in them
    std::uint64_t durable_bytes = 0;  // active-segment bytes known durable
                                      // (high-water across rotations)
    /// Always false. Kept only until the benchmark driver, which still
    /// reads it, drops the field.
    bool uring_active = false;
  };
  Stats stats() const;

 private:
  explicit Writer(Options options);  // defined where SyncStage is complete

  // All _locked members require mu_ held.
  Status open_segment_locked(std::uint64_t first_sequence) NONREP_REQUIRES(mu_);
  Status close_segment_locked() NONREP_REQUIRES(mu_);  // drain + close fd
  Status maybe_rotate_locked() NONREP_REQUIRES(mu_);

  Options opt_;
  std::shared_ptr<DurabilityState> state_;
  std::unique_ptr<SyncStage> stage_;

  mutable util::Mutex mu_{util::LockRank::kJournalWriter, "journal.writer"};
  int fd_ NONREP_GUARDED_BY(mu_) = -1;
  std::uint64_t active_bytes_ NONREP_GUARDED_BY(mu_) = 0;  // bytes in the fd (header + frames)

  std::uint64_t next_seq_ NONREP_GUARDED_BY(mu_) = 0;
  std::uint64_t written_lsn_ NONREP_GUARDED_BY(mu_) = 0;  // records written to the fd
  bool closed_ NONREP_GUARDED_BY(mu_) = false;
  Status io_error_ NONREP_GUARDED_BY(mu_);  // first unrecovered append-path I/O failure, sticky
  Stats stats_ NONREP_GUARDED_BY(mu_);
};

}  // namespace nonrep::journal
