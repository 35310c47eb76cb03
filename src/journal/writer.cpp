#include "journal/writer.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/sync_stage.hpp"
#include "obs/metrics.hpp"

namespace nonrep::journal {

namespace fs = std::filesystem;

namespace {

// Handles resolved once; recording is lock-free so it is safe under mu_.
// (Barrier-side instruments — syncs, fsync_ns, records per barrier,
// coalescing — live in sync_stage.cpp, where the barriers run.)
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

/// How far ahead of the write position the active segment is zero-filled.
constexpr std::uint64_t kPadAheadBytes = 64 << 10;

Status pwrite_all(int fd, BytesView data, std::uint64_t at) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::pwrite(fd, data.data() + off, data.size() - off,
                               static_cast<off_t>(at + off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("pwrite");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok_status();
}

/// Zero-fill [from, to) of fd.
Status write_zeros(int fd, std::uint64_t from, std::uint64_t to) {
  static const std::array<std::uint8_t, kPadAheadBytes> zeros{};
  while (from < to) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(to - from, zeros.size()));
    if (auto written = pwrite_all(fd, BytesView(zeros.data(), n), from); !written.ok()) {
      return written;
    }
    from += n;
  }
  return Status::ok_status();
}

/// Persist a directory entry (segment creation) across power loss.
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
  w->state_ = std::make_shared<DurabilityState>();
  w->stage_ = std::make_unique<SyncStage>(w->state_);
  w->next_seq_ = report.next_sequence;
  if (report.tail_path.has_value()) {
    // Continue the final segment in place, after its last frame; a crash
    // may have left zero padding beyond it, which the next frames reuse.
    const int fd = ::open(report.tail_path->c_str(), O_WRONLY);
    if (fd < 0) return errno_error("open " + *report.tail_path);
    w->fd_ = fd;
    struct stat st{};
    if (::fstat(fd, &st) != 0) return errno_error("fstat " + *report.tail_path);
    w->active_bytes_ = report.tail_valid_bytes;
    w->padded_bytes_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(st.st_size),
                                               report.tail_valid_bytes);
  }
  {
    util::MutexLock lk(w->state_->request_mu);
    w->state_->request_hook = [raw = w.get()](std::uint64_t lsn) { raw->request_barrier(lsn); };
  }
  return w;
}

Writer::Writer(Options options) : opt_(std::move(options)) {}

Writer::~Writer() { (void)close(); }

Status Writer::open_segment_locked(std::uint64_t first_sequence) {
  const std::string path = (fs::path(opt_.dir) / segment_filename(first_sequence)).string();
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return errno_error("open " + path);
  fd_ = fd;
  const Bytes header = encode_segment_header(first_sequence);
  auto written = pwrite_all(fd_, header, 0);
  if (!written.ok()) return written;
  active_bytes_ = header.size();
  padded_bytes_ = header.size();
  // The name must be durable before any record is: a later fdatasync on the
  // fd would commit data into a file whose name could vanish with the power.
  return fsync_dir(opt_.dir);
}

Status Writer::write_frame_locked(BytesView frame) {
  const std::uint64_t end = active_bytes_ + frame.size();
  if (end > padded_bytes_) {
    // Grow the file once per 64 KiB rather than on every append: the frames
    // that follow overwrite zeros, so their barriers commit no new size.
    const std::uint64_t padded = end + kPadAheadBytes;
    if (auto zeroed = write_zeros(fd_, padded_bytes_, padded); !zeroed.ok()) return zeroed;
    padded_bytes_ = padded;
  }
  return pwrite_all(fd_, frame, active_bytes_);
}

void Writer::request_barrier(std::uint64_t lsn) {
  util::MutexLock lock(mu_);
  if (lsn > state_->requested_lsn.load(std::memory_order_relaxed)) request_locked();
}

void Writer::request_locked() {
  if (fd_ < 0 || written_lsn_ <= state_->requested_lsn.load(std::memory_order_relaxed)) return;
  stage_->request(fd_, written_lsn_, active_bytes_);
  state_->requested_lsn.store(written_lsn_, std::memory_order_release);
}

Status Writer::close_segment_locked() {
  if (fd_ < 0) return Status::ok_status();
  // One barrier over everything written; draining retires it, so the
  // segment is durable in full and no job for this fd outlives it.
  request_locked();
  auto drained = stage_->drain();
  if (!drained.ok()) return drained;
  // No frame will use the padding now. The cut needs no sync: if a crash
  // undoes it, recovery reads the zeros as the segment's clean end.
  Status cut = Status::ok_status();
  if (padded_bytes_ > active_bytes_ &&
      ::ftruncate(fd_, static_cast<off_t>(active_bytes_)) != 0) {
    cut = errno_error("ftruncate");
  }
  ::close(fd_);
  fd_ = -1;
  return cut;
}

Status Writer::maybe_rotate_locked() {
  if (fd_ < 0 || active_bytes_ < opt_.segment_max_bytes) return Status::ok_status();
  auto rotated = close_segment_locked();
  if (rotated.ok()) rotated = open_segment_locked(next_seq_);
  if (!rotated.ok()) return rotated;
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
  util::MutexLock lock(mu_);
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
  if (auto written = write_frame_locked(frame); !written.ok()) {
    io_error_ = written;
    state_->fail(written);  // settle earlier tickets still waiting on a barrier
    return written.error();
  }
  active_bytes_ += frame.size();
  ++written_lsn_;
  ++stats_.appends;
  metrics().appends.add();

  if (auto rotated = maybe_rotate_locked(); !rotated.ok()) {
    io_error_ = rotated;
    state_->fail(rotated);
    return rotated.error();
  }
  return AppendTicket{seq, written_lsn_, DurableFuture(state_, written_lsn_)};
}

Result<std::uint64_t> Writer::append(BytesView payload) {
  auto ticket = append_async(payload);
  if (!ticket) return ticket.error();
  if (auto durable = wait_durable(ticket.value().lsn); !durable.ok()) return durable.error();
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
  std::uint64_t target = 0;
  {
    util::MutexLock lock(mu_);
    if (!io_error_.ok()) return io_error_;
    target = written_lsn_;
  }
  return wait_durable(target);
}

Status Writer::close() {
  {
    // No waiter may reach this writer once it is gone; the drain below
    // covers every ticket issued so far.
    util::MutexLock lk(state_->request_mu);
    state_->request_hook = nullptr;
  }
  Status closed;
  {
    util::MutexLock lock(mu_);
    if (closed_) return io_error_;
    closed = close_segment_locked();
    closed_ = true;
    if (!closed.ok()) {
      if (io_error_.ok()) io_error_ = closed;
      state_->fail(closed);  // settle tickets that will now never be durable
    }
  }
  (void)stage_->shutdown();
  return closed;
}

void Writer::simulate_crash() {
  util::MutexLock lock(mu_);
  // The fd is abandoned without a final sync, exactly as in a real crash.
  // Queued barriers are abandoned too — their tickets settle with
  // journal.crashed, while tickets whose barrier already retired stay ok
  // (prefix durability).
  closed_ = true;
  stage_->crash(Error::make("journal.crashed",
                            "writer crashed before the covering barrier"));
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
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
  s.coalesced_barriers = stage.coalesced;
  s.ticket_waits = state_->ticket_waits.load(std::memory_order_relaxed);
  s.ticket_wait_ns = state_->ticket_wait_ns.load(std::memory_order_relaxed);
  {
    util::MutexLock sl(state_->mu);
    s.durable_bytes = state_->durable_bytes;
  }
  return s;
}

}  // namespace nonrep::journal
