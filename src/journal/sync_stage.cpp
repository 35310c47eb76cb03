#include "journal/sync_stage.hpp"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metrics.hpp"

namespace nonrep::journal {

namespace {

struct PipelineMetrics {
  obs::Counter& coalesced =
      obs::Registry::global().counter("journal.pipeline.coalesced");
  obs::Counter& syncs = obs::Registry::global().counter("journal.syncs");
  obs::Histogram& fsync_ns = obs::Registry::global().histogram("journal.fsync_ns");
  obs::Histogram& records_per_barrier =
      obs::Registry::global().histogram("journal.batch_records");
};

PipelineMetrics& metrics() {
  static PipelineMetrics m;
  return m;
}

Error errno_error(const std::string& what) {
  return Error::make("journal.io", what + ": " + std::strerror(errno));
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

// ----------------------------------------------------------------- stage

SyncStage::SyncStage(std::shared_ptr<DurabilityState> state) : state_(std::move(state)) {}

SyncStage::~SyncStage() { (void)shutdown(); }

void SyncStage::request(int fd, std::uint64_t target_lsn,
                        std::uint64_t target_bytes) {
  util::MutexLock lk(mu_);
  if (stop_ || crashed_) return;
  if (!thread_.joinable()) thread_ = std::thread([this] { worker(); });
  if (!queued_) {
    queued_ = Job{fd, target_lsn, target_bytes};
    cv_.notify_one();
    return;
  }
  // Group commit: the queued job has not run yet, so it covers every byte
  // written before it does; a request just raises its target. The queued
  // job is always for this fd: the writer drains before it closes one.
  assert(queued_->fd == fd);
  queued_->target_lsn = std::max(queued_->target_lsn, target_lsn);
  queued_->target_bytes = std::max(queued_->target_bytes, target_bytes);
  ++stats_.coalesced;
  metrics().coalesced.add();
}

Status SyncStage::drain() {
  util::UniqueLock lk(mu_);
  done_cv_.wait(lk, [&] { return !queued_ && !executing_; });
  return error_;
}

void SyncStage::crash(Status reason) {
  {
    util::MutexLock lk(mu_);
    if (!crashed_) {
      crashed_ = true;
      // The queued barrier never runs; its tickets fail through the shared
      // state below.
      queued_.reset();
      if (error_.ok()) error_ = reason;
    }
    stop_ = true;
  }
  state_->fail(std::move(reason));
  cv_.notify_all();
  done_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Status SyncStage::shutdown() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  util::MutexLock lk(mu_);
  return error_;
}

SyncStage::Stats SyncStage::stats() const {
  util::MutexLock lk(mu_);
  return stats_;
}

Status SyncStage::error() const {
  util::MutexLock lk(mu_);
  return error_;
}

void SyncStage::worker() {
  util::UniqueLock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || queued_.has_value(); });
    if (!queued_) break;  // stopping, and nothing left to retire
    const Job job = *queued_;
    queued_.reset();
    executing_ = true;
    const bool skip = !error_.ok();
    lk.unlock();
    if (!skip) run(job);
    lk.lock();
    executing_ = false;
    done_cv_.notify_all();
  }
}

void SyncStage::fail(Status s) {
  {
    util::MutexLock lk(mu_);
    if (error_.ok()) error_ = s;
  }
  state_->fail(std::move(s));
}

void SyncStage::run(const Job& job) {
  const auto t0 = std::chrono::steady_clock::now();
  if (::fdatasync(job.fd) != 0) {
    fail(errno_error("fdatasync"));
    return;
  }
  metrics().fsync_ns.record(elapsed_ns(t0));
  metrics().syncs.add();
  metrics().records_per_barrier.record(job.target_lsn - last_retired_lsn_);
  {
    util::MutexLock lk(mu_);
    ++stats_.barriers;
  }
  last_retired_lsn_ = std::max(last_retired_lsn_, job.target_lsn);
  state_->retire(job.target_lsn, job.target_bytes);
}

}  // namespace nonrep::journal
