// The sync stage behind journal::Writer.
//
// The writer (holding its mutex) enqueues barrier *jobs* — "make everything
// up to (target_lsn, target_bytes) on fd durable" — when the first caller
// waits on a record no requested barrier covers yet (a ticket wait,
// wait_durable, sync, rotation or close; appends enqueue nothing), and the
// job it enqueues covers every record written so far. A dedicated worker
// retires the jobs off-thread with fdatasync and publishes watermarks
// through the shared DurabilityState, which settles the tickets. Appenders
// keep writing while a barrier is in flight.
//
// Group commit: a request for the fd of the queued job widens that job
// instead of queueing another, so every record a waiter asks for while a
// barrier is in flight rides the next one. The writer drains the stage
// before it closes an fd, so there is never more than one job queued
// beside the one executing.
//
// Locking: DurabilityState::request_mu -> Writer::mu_ -> SyncStage::mu_.
// The worker takes only stage state (never the writer's mutex); crash()
// and shutdown() join it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include "util/lock_discipline.hpp"
#include "journal/ticket.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

class SyncStage {
 public:
  explicit SyncStage(std::shared_ptr<DurabilityState> state);
  ~SyncStage();
  SyncStage(const SyncStage&) = delete;
  SyncStage& operator=(const SyncStage&) = delete;

  /// Enqueue a barrier covering (target_lsn, target_bytes) on fd, or widen
  /// the queued job (which must be for the same fd: drain() before closing
  /// one). Never blocks on the device. Safe to call with the writer's mutex
  /// held. After crash()/shutdown() this is a no-op.
  void request(int fd, std::uint64_t target_lsn, std::uint64_t target_bytes);

  /// Wait until every requested barrier has been executed (or the stage has
  /// failed). Returns the sticky error, if any. The caller may hold the
  /// writer's mutex; the fd of every outstanding job must stay open until
  /// this returns.
  Status drain();

  /// Abandon the queued barrier, settle every outstanding ticket with
  /// `reason` (already-durable tickets still report ok), join the worker.
  /// Used by simulate_crash(); idempotent.
  void crash(Status reason);

  /// Drain, then stop and join the worker. Idempotent.
  Status shutdown();

  struct Stats {
    std::uint64_t barriers = 0;   // device barriers issued
    std::uint64_t coalesced = 0;  // requests folded into the queued job
  };
  Stats stats() const;

  /// First barrier failure (sticky), ok otherwise.
  Status error() const;

 private:
  struct Job {
    int fd = -1;
    std::uint64_t target_lsn = 0;
    std::uint64_t target_bytes = 0;
  };

  void worker();
  void run(const Job& job);
  void fail(Status s);  // takes mu_ itself

  std::shared_ptr<DurabilityState> state_;

  mutable util::Mutex mu_{util::LockRank::kJournalSync, "journal.sync_stage"};
  util::CondVar cv_;       // worker wakeups
  util::CondVar done_cv_;  // drain() wakeups
  std::optional<Job> queued_ NONREP_GUARDED_BY(mu_);
  bool executing_ NONREP_GUARDED_BY(mu_) = false;  // the worker holds a job
  bool stop_ NONREP_GUARDED_BY(mu_) = false;
  bool crashed_ NONREP_GUARDED_BY(mu_) = false;
  Status error_ NONREP_GUARDED_BY(mu_);
  Stats stats_ NONREP_GUARDED_BY(mu_);

  // Worker-thread-only state (no locking needed).
  std::uint64_t last_retired_lsn_ = 0;

  std::thread thread_;
};

}  // namespace nonrep::journal
