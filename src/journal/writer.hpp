// Append side of the durable evidence journal — group commit with a
// future-based durability API.
//
// A Writer owns one journal directory and appends data records with
// monotonically increasing sequence numbers. There is one commit rule:
// append_async() writes the record's frame to the OS and returns an
// AppendTicket at once; it asks for no barrier. The first caller that needs
// durability asks the sync stage (journal/sync_stage.hpp) for one barrier
// covering everything written so far: a ticket wait (through the request
// hook in DurabilityState, journal/ticket.hpp), wait_durable(), sync(),
// rotation or close(). The stage retires barriers off-thread with
// fdatasync and settles tickets in LSN order. A wait whose LSN a requested
// barrier already covers asks for nothing, and a request made while a
// barrier is in flight widens the one queued behind it, so every record
// written before a wait rides one fdatasync.
//
// append() is append_async() plus that wait. The evidence layer stages with
// append_async() and waits once per outgoing protocol message (the
// write-ahead rule at the send).
//
// Zero padding: the writer keeps the active segment zero-filled 64 KiB
// ahead of its write position (pwrite of zeros, extended in one step when a
// frame would cross the padded end), so a frame overwrites space the file
// already has and a barrier flushes data pages without committing a new
// file size. Recovery reads an all-zero remainder as the clean end of a
// segment (journal/format.hpp). A crash leaves the padding on disk; the
// next open() continues at the last frame and keeps it.
//
// When a segment reaches segment_max_bytes the writer requests and drains
// the barrier covering it (no queued fdatasync may outlive its fd), cuts
// the file back to its last frame, closes it, and creates the next one,
// making its name durable (directory fsync) before any record lands in it.
// close() (and the destructor) drain, cut and close the active segment the
// same way and leave it open-ended: the next open() continues it in place.
// The cut is not synced: a crash that undoes it leaves zeros, which
// recovery reads as the clean end anyway. So a clean close and a crash
// after the last barrier retired leave the same frames on disk.
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

  /// Writes one data record to the OS and returns its ticket, without
  /// requesting a barrier. The record is durable once ticket.durable
  /// settles ok; waiting on it requests the barrier (the future stays valid
  /// after close/crash). Thread-safe.
  Result<AppendTicket> append_async(BytesView payload);

  /// append_async, then wait until the record is durable. Returns the
  /// sequence number.
  Result<std::uint64_t> append(BytesView payload);

  /// Block until every record up to `lsn` (AppendTicket::lsn) is durable,
  /// requesting the barrier if nobody has.
  Status wait_durable(std::uint64_t lsn);

  /// A waitable future for `lsn`; durable_future(0) is already settled.
  DurableFuture durable_future(std::uint64_t lsn) const;

  /// Requests the barrier covering everything appended so far and waits
  /// until it retires.
  Status sync();

  /// Waits until every appended record is durable, cuts the active segment
  /// back to its last frame, closes it and stops the writer. Idempotent;
  /// also run by the destructor.
  Status close();

  /// Test hook: abandon queued barriers and the fd without syncing — the
  /// on-disk state, zero padding included, is exactly what a crash would
  /// leave. Outstanding tickets whose barrier never retired settle with
  /// journal.crashed; already-durable tickets stay ok.
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

  // The request hook's body: a barrier covering `lsn`, unless one is.
  void request_barrier(std::uint64_t lsn);

  // All _locked members require mu_ held.
  Status open_segment_locked(std::uint64_t first_sequence) NONREP_REQUIRES(mu_);
  Status write_frame_locked(BytesView frame) NONREP_REQUIRES(mu_);  // pad + pwrite
  void request_locked() NONREP_REQUIRES(mu_);  // barrier over all written
  Status close_segment_locked() NONREP_REQUIRES(mu_);  // drain + cut + close fd
  Status maybe_rotate_locked() NONREP_REQUIRES(mu_);

  Options opt_;
  std::shared_ptr<DurabilityState> state_;
  std::unique_ptr<SyncStage> stage_;

  mutable util::Mutex mu_{util::LockRank::kJournalWriter, "journal.writer"};
  int fd_ NONREP_GUARDED_BY(mu_) = -1;
  std::uint64_t active_bytes_ NONREP_GUARDED_BY(mu_) = 0;  // header + frames: the write position
  std::uint64_t padded_bytes_ NONREP_GUARDED_BY(mu_) = 0;  // file size; zeros past active_bytes_

  std::uint64_t next_seq_ NONREP_GUARDED_BY(mu_) = 0;
  std::uint64_t written_lsn_ NONREP_GUARDED_BY(mu_) = 0;  // records written to the fd
  bool closed_ NONREP_GUARDED_BY(mu_) = false;
  Status io_error_ NONREP_GUARDED_BY(mu_);  // first unrecovered append-path I/O failure, sticky
  Stats stats_ NONREP_GUARDED_BY(mu_);
};

}  // namespace nonrep::journal
