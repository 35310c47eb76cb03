#include "store/evidence_log.hpp"

#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace nonrep::store {

Bytes LogRecord::canonical() const {
  BinaryWriter w;
  w.u64(sequence);
  w.u64(time);
  w.str(run.str());
  w.str(kind);
  w.bytes(payload);
  return std::move(w).take();
}

crypto::Digest chain_digest(const crypto::Digest& prev, const LogRecord& record) {
  crypto::Sha256 h;
  h.update(BytesView(prev.data(), prev.size()));
  const Bytes c = record.canonical();
  h.update(c);
  return h.finish();
}

Bytes encode_log_record(const LogRecord& r) {
  BinaryWriter w;
  w.bytes(r.canonical());
  w.bytes(crypto::digest_bytes(r.chain));
  return std::move(w).take();
}

Result<LogRecord> decode_log_record(BytesView b) {
  BinaryReader outer(b);
  auto canonical = outer.bytes();
  if (!canonical) return canonical.error();
  auto chain = outer.bytes();
  if (!chain) return chain.error();

  BinaryReader r(canonical.value());
  LogRecord rec;
  auto seq = r.u64();
  if (!seq) return seq.error();
  rec.sequence = seq.value();
  auto time = r.u64();
  if (!time) return time.error();
  rec.time = time.value();
  auto run = r.str();
  if (!run) return run.error();
  rec.run = RunId(run.value());
  auto kind = r.str();
  if (!kind) return kind.error();
  rec.kind = kind.value();
  auto payload = r.bytes();
  if (!payload) return payload.error();
  rec.payload = payload.value();
  if (!crypto::digest_from_bytes(chain.value(), rec.chain)) {
    return Error::make("log.bad_chain_digest", "wrong length");
  }
  return rec;
}

EvidenceLog::EvidenceLog(std::unique_ptr<LogBackend> backend, std::shared_ptr<Clock> clock,
                         std::shared_ptr<ObjectStore>)
    : backend_(std::move(backend)), clock_(std::move(clock)) {
  records_ = backend_->load();
  records_gauge_.add(static_cast<std::int64_t>(records_.size()));
  for (const auto& r : records_) payload_gauge_.add(static_cast<std::int64_t>(r.payload.size()));
}

LogRecord EvidenceLog::append(const RunId& run, std::string kind, Bytes payload) {
  auto [rec, receipt] = append_async(run, std::move(kind), std::move(payload));
  // Outside mu_: other appenders chain and stage records while this one's
  // fdatasync is in flight.
  (void)settle(receipt);
  return rec;
}

std::pair<LogRecord, AppendReceipt> EvidenceLog::append_async(const RunId& run,
                                                              std::string kind,
                                                              Bytes payload) {
  util::MutexLock lk(mu_);
  LogRecord rec;
  rec.sequence = records_.size();
  rec.time = clock_->now();
  rec.run = run;
  rec.kind = std::move(kind);
  rec.payload = std::move(payload);
  const crypto::Digest prev = records_.empty() ? crypto::Digest{} : records_.back().chain;
  rec.chain = chain_digest(prev, rec);
  rec.span = obs::current_span_id();
  records_gauge_.add(1);
  payload_gauge_.add(static_cast<std::int64_t>(rec.payload.size()));
  records_.push_back(std::move(rec));
  auto staged = backend_->append_async(records_.back());
  if (!staged) {
    if (backend_status_.ok()) backend_status_ = staged.error();
    tail_ = AppendReceipt{journal::DurableFuture::ready(staged.error())};
  } else {
    tail_ = std::move(staged).take();
  }
  return {records_.back(), tail_};
}

Status EvidenceLog::settle(const AppendReceipt& receipt) {
  // The barrier was requested at staging; the wait goes through the
  // backend's sync() so a backend decorator sees (and can time) it.
  if (!receipt.durable.ready()) {
    if (auto forced = backend_->sync(); !forced.ok()) {
      util::MutexLock lk(mu_);
      if (backend_status_.ok()) backend_status_ = forced;
      return forced;
    }
  }
  auto durable = receipt.durable.wait();
  if (!durable.ok()) {
    util::MutexLock lk(mu_);
    if (backend_status_.ok()) backend_status_ = durable;
  }
  return durable;
}

Status EvidenceLog::barrier() {
  AppendReceipt tail;
  {
    util::MutexLock lk(mu_);
    tail = tail_;
  }
  return settle(tail);
}

std::size_t EvidenceLog::size() const {
  util::MutexLock lk(mu_);
  return records_.size();
}

std::uint64_t EvidenceLog::payload_bytes() const {
  return static_cast<std::uint64_t>(payload_gauge_.share());
}

Status EvidenceLog::backend_status() const {
  util::MutexLock lk(mu_);
  if (!backend_status_.ok()) return backend_status_;
  // Barriers retire after append_async returns; the backend keeps the
  // sticky failure for records nobody settle()d.
  return backend_->health();
}

std::vector<LogRecord> EvidenceLog::find_run(const RunId& run) const {
  util::MutexLock lk(mu_);
  std::vector<LogRecord> out;
  for (const auto& r : records_) {
    if (r.run == run) out.push_back(r);
  }
  return out;
}

std::optional<LogRecord> EvidenceLog::find(const RunId& run, std::string_view kind) const {
  util::MutexLock lk(mu_);
  for (const auto& r : records_) {
    if (r.run == run && r.kind == kind) return r;
  }
  return std::nullopt;
}

Status EvidenceLog::verify_chain() const {
  util::MutexLock lk(mu_);
  crypto::Digest prev{};
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const LogRecord& r = records_[i];
    if (r.sequence != i) {
      return Error::make("log.sequence_gap", "at index " + std::to_string(i));
    }
    const crypto::Digest expected = chain_digest(prev, r);
    if (!constant_time_equal(BytesView(expected.data(), expected.size()),
                             BytesView(r.chain.data(), r.chain.size()))) {
      return Error::make("log.chain_mismatch", "record " + std::to_string(i));
    }
    prev = r.chain;
  }
  return Status::ok_status();
}

}  // namespace nonrep::store
