// Durability tickets for the journal (the future half of the async append
// API).
//
// append_async() writes every record and hands it an AppendTicket
// immediately; the record becomes *evidence* only once the sync stage has
// retired the device barrier covering its LSN. Nobody asks for that barrier
// at the append: the first caller that waits does. DurableFuture::wait()
// asks the owning writer, through the request hook in DurabilityState, for
// one barrier covering everything written so far, then sleeps; later waiters
// whose LSN that barrier already covers only sleep. A DurableFuture shares
// the writer's durability watermark, so waiting costs one condition-variable
// sleep and completing a batch costs one notify for every ticket it covers —
// there is no per-ticket allocation or registration. ready() only polls: it
// never asks for a barrier.
//
// Futures outlive their writer: the shared state survives until the last
// ticket drops, and close()/crash() settle every outstanding ticket (with
// success or a sticky error) before the writer goes away.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "util/lock_discipline.hpp"
#include "util/result.hpp"

namespace nonrep::journal {

/// Shared durability watermark of one Writer: which LSN (1-based append
/// index) and how many bytes of the active segment the device has committed.
/// The sync stage publishes, tickets and wait_durable() observe. The writer
/// also publishes here how far barriers have been requested, and installs
/// the hook a waiter uses to request one.
struct DurabilityState {
  util::Mutex mu{util::LockRank::kJournalState, "journal.durability_state"};
  util::CondVar cv;
  std::uint64_t durable_lsn NONREP_GUARDED_BY(mu) = 0;    // records the device has committed
  std::uint64_t durable_bytes NONREP_GUARDED_BY(mu) = 0;  // active-segment bytes those barriers covered
  Status error NONREP_GUARDED_BY(mu);                     // sticky: first barrier/crash failure

  // Highest LSN a requested barrier covers. Raised by the writer (under its
  // own mutex) after it queues the barrier, so a waiter that reads it at or
  // above its LSN has nothing to ask for.
  std::atomic<std::uint64_t> requested_lsn{0};
  // Asks the owning writer for a barrier covering at least the given LSN.
  // Installed when the writer opens and cleared when it closes; empty for a
  // state no writer owns.
  util::Mutex request_mu{util::LockRank::kJournalRequest, "journal.barrier_request"};
  std::function<void(std::uint64_t)> request_hook NONREP_GUARDED_BY(request_mu);

  // Ticket accounting (Writer::Stats / obs). Relaxed: counters only.
  std::atomic<std::uint64_t> ticket_waits{0};
  std::atomic<std::uint64_t> ticket_wait_ns{0};

  /// Publish a retired barrier and settle every ticket it covers.
  void retire(std::uint64_t lsn, std::uint64_t bytes) {
    {
      util::MutexLock lk(mu);
      if (lsn > durable_lsn) durable_lsn = lsn;
      if (bytes > durable_bytes) durable_bytes = bytes;
    }
    cv.notify_all();
  }

  /// Make sure a barrier covering `lsn` is requested. Free when one already
  /// is; otherwise the hook runs with no lock of this state held.
  void request(std::uint64_t lsn) {
    if (requested_lsn.load(std::memory_order_acquire) >= lsn) return;
    util::MutexLock lk(request_mu);
    if (request_hook) request_hook(lsn);
  }

  /// Record a sticky failure and wake every waiter. First error wins.
  void fail(Status s) {
    {
      util::MutexLock lk(mu);
      if (error.ok()) error = std::move(s);
    }
    cv.notify_all();
  }
};

/// One record's claim on durability. Default-constructed (or from a backend
/// with nothing asynchronous about it) the future is immediately ready and
/// ok; a journal-issued future completes when the sync stage retires the
/// barrier covering its LSN, or fails with the writer's sticky error.
class DurableFuture {
 public:
  DurableFuture() = default;
  DurableFuture(std::shared_ptr<DurabilityState> state, std::uint64_t lsn)
      : state_(std::move(state)), lsn_(lsn) {}

  /// An already-settled future (synchronous backends, error propagation).
  static DurableFuture ready(Status s) {
    DurableFuture f;
    if (!s.ok()) {
      f.state_ = std::make_shared<DurabilityState>();
      f.state_->error = std::move(s);
      f.lsn_ = 1;  // unreachable watermark: wait() reports the error
    }
    return f;
  }

  /// True once the record is durable or the writer has failed.
  bool ready() const {
    if (!state_) return true;
    util::MutexLock lk(state_->mu);
    return state_->durable_lsn >= lsn_ || !state_->error.ok();
  }

  /// Block until settled, first requesting the covering barrier if nobody
  /// has. Ok when that barrier retired; the sticky writer error when
  /// durability can no longer happen. Re-waitable.
  Status wait() const {
    if (!state_) return Status::ok_status();
    state_->request(lsn_);
    util::UniqueLock lk(state_->mu);
    if (state_->durable_lsn < lsn_ && state_->error.ok()) {
      state_->ticket_waits.fetch_add(1, std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      state_->cv.wait(lk, [&] {
        return state_->durable_lsn >= lsn_ || !state_->error.ok();
      });
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      state_->ticket_wait_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                       std::memory_order_relaxed);
    }
    if (state_->durable_lsn >= lsn_) return Status::ok_status();
    return state_->error;
  }

  std::uint64_t lsn() const noexcept { return lsn_; }

 private:
  std::shared_ptr<DurabilityState> state_;
  std::uint64_t lsn_ = 0;
};

/// What append_async() returns: the record's journal sequence, its LSN in
/// the writer's append order, and the future that settles when it is on the
/// device (waiting on it requests the barrier).
struct AppendTicket {
  std::uint64_t sequence = 0;
  std::uint64_t lsn = 0;
  DurableFuture durable;
};

}  // namespace nonrep::journal
