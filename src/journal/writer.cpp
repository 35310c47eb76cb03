#include "journal/writer.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/sync_stage.hpp"
#include "obs/metrics.hpp"

namespace nonrep::journal {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSpareFilename = ".spare.wal";

// Handles resolved once; recording is lock-free so it is safe under mu_.
// (Barrier-side instruments — syncs, fsync_ns, batch_records, pipeline
// depth/coalescing — live in sync_stage.cpp, where the barriers now run.)
struct JournalMetrics {
  obs::Counter& appends = obs::Registry::global().counter("journal.appends");
  obs::Counter& rotations = obs::Registry::global().counter("journal.rotations");
  obs::Histogram& barrier_wait_ns =
      obs::Registry::global().histogram("journal.barrier_wait_ns");
  obs::Histogram& ticket_wait_ns =
      obs::Registry::global().histogram("journal.pipeline.ticket_wait_ns");
};

JournalMetrics& metrics() {
  static JournalMetrics m;
  return m;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

Error errno_error(const std::string& what) {
  return Error::make("journal.io", what + ": " + std::strerror(errno));
}

Status write_all(int fd, BytesView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("write");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok_status();
}

/// Persist a directory entry (segment creation/removal/rename) across power
/// loss.
Status fsync_dir(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return errno_error("open " + dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return errno_error("fsync " + dir);
  return Status::ok_status();
}

}  // namespace

Result<std::unique_ptr<Writer>> Writer::open(Options options) {
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Error::make("journal.io", "cannot create " + options.dir + ": " + ec.message());
  }
  auto report = Reader::recover(options.dir, RecoverMode::kRepair);
  if (!report) return report.error();
  return resume(std::move(options), report.value());
}

Result<std::unique_ptr<Writer>> Writer::resume(Options options,
                                               const RecoveryReport& report) {
  if (!report.resumable) {
    return Error::make("journal.unrecoverable",
                       "journal has damage beyond a torn tail; audit before writing");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Error::make("journal.io", "cannot create " + options.dir + ": " + ec.message());
  }

  std::unique_ptr<Writer> w(new Writer(std::move(options)));
  // A spare left by a previous process is stale (its preallocation may not
  // match, and its fd is gone); recovery ignores the name, we recreate it.
  fs::remove(fs::path(w->opt_.dir) / kSpareFilename, ec);

  w->state_ = std::make_shared<DurabilityState>();
  SyncStage::Options stage_opt;
  stage_opt.max_batches_in_flight = w->opt_.max_batches_in_flight;
  w->stage_ = std::make_unique<SyncStage>(w->state_, std::move(stage_opt));

  w->next_seq_ = report.next_sequence;
  w->last_barrier_request_ = std::chrono::steady_clock::now();
  if (report.tail_path.has_value()) {
    // Continue the unsealed final segment in place.
    const int fd = ::open(report.tail_path->c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) return errno_error("open " + *report.tail_path);
    w->fd_ = fd;
    w->active_path_ = *report.tail_path;
    w->active_first_seq_ = report.tail_first_sequence;
    w->active_bytes_ = report.tail_valid_bytes;
    w->leaves_ = report.tail_leaves;
  }
  return w;
}

Writer::Writer(Options options) : opt_(std::move(options)) {}

Writer::~Writer() { (void)close(); }

std::string Writer::spare_path() const {
  return (fs::path(opt_.dir) / kSpareFilename).string();
}

Status Writer::open_segment_locked(std::uint64_t first_sequence) {
  active_path_ = (fs::path(opt_.dir) / segment_filename(first_sequence)).string();
  const int fd = ::open(active_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return errno_error("open " + active_path_);
  fd_ = fd;
  active_first_seq_ = first_sequence;
  leaves_.clear();
  const Bytes header = encode_segment_header(first_sequence);
  auto written = write_all(fd_, header);
  if (!written.ok()) return written;
  active_bytes_ = header.size();
  auto synced = fsync_dir(opt_.dir);
  if (!synced.ok()) return synced;
  if (opt_.preallocate_segments) {
    stage_->prepare_spare(spare_path(), opt_.segment_max_bytes);
  }
  return Status::ok_status();
}

Status Writer::flush_locked() {
  if (pending_.empty()) return Status::ok_status();
  auto written = write_all(fd_, pending_);
  if (!written.ok()) return written;
  active_bytes_ += pending_.size();
  written_lsn_ += pending_records_;
  pending_.clear();
  pending_records_ = 0;
  ++stats_.flushes;
  return Status::ok_status();
}

void Writer::request_barrier_locked() {
  if (written_lsn_ <= requested_lsn_) return;  // a queued barrier covers it
  requested_lsn_ = written_lsn_;
  last_barrier_request_ = std::chrono::steady_clock::now();
  stage_->request(fd_, written_lsn_, active_bytes_);
}

Status Writer::seal_locked() {
  if (fd_ < 0) return Status::ok_status();
  auto flushed = flush_locked();
  if (!flushed.ok()) return flushed;

  Checkpoint cp;
  cp.record_count = leaves_.size();
  cp.first_sequence = active_first_seq_;
  cp.last_sequence = leaves_.empty() ? 0 : next_seq_ - 1;
  cp.merkle_root = checkpoint_merkle_root(leaves_);
  const Bytes frame = encode_frame(RecordType::kCheckpoint, cp.last_sequence, cp.encode());
  auto written = write_all(fd_, frame);
  if (!written.ok()) return written;
  active_bytes_ += frame.size();
  // Unconditional barrier (the checkpoint bytes are not covered by any LSN
  // watermark), then drain the whole pipeline: a sealed segment is durable
  // in full, which is what keeps recovery semantics identical to the
  // blocking writer.
  stage_->request(fd_, written_lsn_, active_bytes_);
  if (written_lsn_ > requested_lsn_) requested_lsn_ = written_lsn_;
  auto drained = stage_->drain();
  if (!drained.ok()) return drained;

  ::close(fd_);
  fd_ = -1;
  leaves_.clear();
  return Status::ok_status();
}

Status Writer::maybe_rotate_locked() {
  if (fd_ < 0 || active_bytes_ + pending_.size() < opt_.segment_max_bytes) {
    return Status::ok_status();
  }
  sealing_ = true;
  auto sealed = seal_locked();
  if (sealed.ok()) {
    // Prefer the preallocated spare: rename it into place and persist the
    // name *before* any record lands in it. The directory fsync must stay
    // synchronous — a later fdatasync on the fd would commit data into a
    // file whose name could vanish with the power.
    const int sfd =
        opt_.preallocate_segments ? stage_->take_spare(spare_path()) : -1;
    bool swapped = false;
    if (sfd >= 0) {
      const std::string next_path =
          (fs::path(opt_.dir) / segment_filename(next_seq_)).string();
      if (::rename(spare_path().c_str(), next_path.c_str()) == 0) {
        auto named = fsync_dir(opt_.dir);
        const Bytes header = encode_segment_header(next_seq_);
        if (named.ok()) named = write_all(sfd, header);
        if (named.ok()) {
          fd_ = sfd;
          active_path_ = next_path;
          active_first_seq_ = next_seq_;
          active_bytes_ = header.size();
          leaves_.clear();
          ++stats_.spare_swaps;
          swapped = true;
        } else {
          ::close(sfd);
          sealed = named;
        }
      } else {
        ::close(sfd);
      }
    }
    if (!swapped && sealed.ok()) sealed = open_segment_locked(next_seq_);
    if (swapped && opt_.preallocate_segments) {
      stage_->prepare_spare(spare_path(), opt_.segment_max_bytes);
    }
  }
  sealing_ = false;
  cv_.notify_all();
  if (!sealed.ok()) return sealed;
  ++stats_.rotations;
  metrics().rotations.add();
  return Status::ok_status();
}

Result<AppendTicket> Writer::append_async(BytesView payload) {
  // What the scanner would reject as corruption must never be written: an
  // acknowledged-but-unrecoverable record is worse than an error here.
  if (payload.size() > kMaxBodyBytes - kRecordPrefixBytes) {
    return Error::make("journal.payload_too_large",
                       std::to_string(payload.size()) + " bytes exceeds the " +
                           std::to_string(kMaxBodyBytes) + "-byte body limit");
  }
  util::UniqueLock lock(mu_);
  while (sealing_) cv_.wait(lock);
  if (closed_) return Error::make("journal.closed", "writer is closed");
  if (!io_error_.ok()) return io_error_.error();
  if (auto barrier = stage_->error(); !barrier.ok()) return barrier.error();

  if (fd_ < 0) {
    auto opened = open_segment_locked(next_seq_);
    if (!opened.ok()) {
      io_error_ = opened;
      state_->fail(opened);
      return opened.error();
    }
  }

  const std::uint64_t seq = next_seq_++;
  const Bytes frame = encode_frame(RecordType::kData, seq, payload);
  leaves_.push_back(
      body_digest(BytesView(frame.data() + kFrameHeaderBytes, frame.size() - kFrameHeaderBytes)));
  nonrep::append(pending_, frame);  // qualified: Writer::append shadows
  ++pending_records_;
  ++appended_lsn_;
  ++stats_.appends;
  metrics().appends.add();

  AppendTicket ticket;
  ticket.sequence = seq;
  ticket.lsn = appended_lsn_;

  Status staged = Status::ok_status();
  switch (opt_.sync) {
    case SyncPolicy::kEveryRecord:
      staged = flush_locked();
      if (staged.ok()) request_barrier_locked();
      ticket.policy_blocks = true;
      break;
    case SyncPolicy::kEveryBatch:
      if (pending_records_ >= opt_.batch_records) {
        staged = flush_locked();
        if (staged.ok()) request_barrier_locked();
      }
      break;
    case SyncPolicy::kTimed:
      staged = flush_locked();
      if (staged.ok() &&
          std::chrono::steady_clock::now() - last_barrier_request_ >=
              std::chrono::milliseconds(opt_.sync_interval_ms)) {
        request_barrier_locked();
      }
      break;
  }
  if (!staged.ok()) {
    io_error_ = staged;
    state_->fail(staged);  // settle earlier tickets still waiting on a flush
    return staged.error();
  }

  auto rotated = maybe_rotate_locked();
  if (!rotated.ok()) {
    io_error_ = rotated;
    state_->fail(rotated);
    return rotated.error();
  }
  ticket.durable = DurableFuture(state_, ticket.lsn);
  return ticket;
}

Result<std::uint64_t> Writer::append(BytesView payload) {
  auto ticket = append_async(payload);
  if (!ticket) return ticket.error();
  if (ticket.value().policy_blocks) {
    auto durable = wait_durable(ticket.value().lsn);
    if (!durable.ok()) return durable.error();
  }
  return ticket.value().sequence;
}

Status Writer::wait_durable(std::uint64_t lsn) {
  auto future = durable_future(lsn);
  if (future.ready()) return future.wait();
  const auto t0 = std::chrono::steady_clock::now();
  auto st = future.wait();
  const auto waited = elapsed_ns(t0);
  metrics().barrier_wait_ns.record(waited);
  metrics().ticket_wait_ns.record(waited);
  return st;
}

DurableFuture Writer::durable_future(std::uint64_t lsn) const {
  if (lsn == 0) return DurableFuture();
  return DurableFuture(state_, lsn);
}

Status Writer::sync() {
  util::UniqueLock lock(mu_);
  while (sealing_) cv_.wait(lock);
  if (!io_error_.ok()) return io_error_;
  if (closed_ || fd_ < 0) return io_error_;
  auto flushed = flush_locked();
  if (!flushed.ok()) {
    io_error_ = flushed;
    state_->fail(flushed);
    return flushed;
  }
  request_barrier_locked();
  const std::uint64_t target = written_lsn_;
  lock.unlock();
  return wait_durable(target);
}

Status Writer::close() {
  util::UniqueLock lock(mu_);
  while (sealing_) cv_.wait(lock);
  if (closed_) return io_error_;
  sealing_ = true;
  auto sealed = seal_locked();
  sealing_ = false;
  closed_ = true;
  if (!sealed.ok()) {
    if (io_error_.ok()) io_error_ = sealed;
    state_->fail(sealed);  // settle tickets that will now never be durable
  }
  cv_.notify_all();
  lock.unlock();
  (void)stage_->shutdown();
  return sealed;
}

void Writer::simulate_crash() {
  util::UniqueLock lock(mu_);
  while (sealing_) cv_.wait(lock);
  // Whatever never reached the OS is gone, exactly as in a real crash; the
  // fd is abandoned without a seal or a final sync. Queued barriers are
  // abandoned too — their tickets settle with journal.crashed, while tickets
  // whose barrier already retired stay ok (prefix durability).
  pending_.clear();
  pending_records_ = 0;
  closed_ = true;
  stage_->crash(Error::make("journal.crashed",
                            "writer crashed before the covering barrier"));
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  cv_.notify_all();
}

std::uint64_t Writer::next_sequence() const {
  util::MutexLock lock(mu_);
  return next_seq_;
}

Status Writer::health() const {
  {
    util::MutexLock lock(mu_);
    if (!io_error_.ok()) return io_error_;
  }
  return stage_->error();
}

Writer::Stats Writer::stats() const {
  util::MutexLock lock(mu_);
  Stats s = stats_;
  const SyncStage::Stats stage = stage_->stats();
  s.syncs = stage.barriers;
  s.batches_in_flight_peak = stage.in_flight_peak;
  s.coalesced_barriers = stage.coalesced;
  s.backpressure_waits = stage.backpressure_waits;
  s.ticket_waits = state_->ticket_waits.load(std::memory_order_relaxed);
  s.ticket_wait_ns = state_->ticket_wait_ns.load(std::memory_order_relaxed);
  {
    util::MutexLock sl(state_->mu);
    s.durable_bytes = state_->durable_bytes;
  }
  return s;
}

}  // namespace nonrep::journal
