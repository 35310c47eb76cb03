#include "store/journal_backend.hpp"

#include <filesystem>
#include <utility>

namespace nonrep::store {

namespace fs = std::filesystem;

Result<std::unique_ptr<JournalLogBackend>> JournalLogBackend::open(
    journal::Options options, std::shared_ptr<ObjectStore> /*store*/) {
  std::error_code ec;
  if (fs::is_directory(fs::path(options.dir) / "objects", ec)) {
    return Error::make("journal.unsupported_format",
                       options.dir + " holds a separate objects/ payload journal");
  }
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Error::make("journal.io", "cannot create " + options.dir + ": " + ec.message());
  }
  auto recovered = journal::Reader::recover(options.dir, journal::RecoverMode::kRepair);
  if (!recovered) return recovered.error();
  journal::RecoveryReport& report = recovered.value();
  std::vector<LogRecord> records;
  records.reserve(report.records.size());
  for (const auto& rec : report.records) {
    auto decoded = decode_log_record(rec.payload);
    if (!decoded) {
      return Error::make("journal.undecodable_record",
                         "record " + std::to_string(rec.sequence) + ": " +
                             decoded.error().code + "; audit before writing");
    }
    records.push_back(std::move(decoded).take());
  }
  report.records = {};  // decoded above; keep no raw copy
  auto writer = journal::Writer::resume(options, report);
  if (!writer) return writer.error();
  return std::unique_ptr<JournalLogBackend>(new JournalLogBackend(
      std::move(writer).take(), std::move(report), std::move(records)));
}

Status JournalLogBackend::append(const LogRecord& record) {
  auto staged = append_async(record);
  if (!staged) return staged.error();
  return staged.value().durable.wait();
}

Result<AppendReceipt> JournalLogBackend::append_async(const LogRecord& record) {
  // The journal's own sequence numbering and the evidence log's must stay in
  // lockstep — a divergence means the journal holds records this log never
  // produced (or lost some). Checked *before* persisting, so a rogue record
  // is rejected without ever entering the journal.
  const std::uint64_t next = writer_->next_sequence();
  if (next != record.sequence) {
    return Error::make("journal.sequence_divergence",
                       "journal would assign " + std::to_string(next) +
                           ", record carries " + std::to_string(record.sequence));
  }
  auto ticket = writer_->append_async(encode_log_record(record));
  if (!ticket) return ticket.error();
  return AppendReceipt{std::move(ticket.value().durable)};
}

Status JournalLogBackend::health() const { return writer_->health(); }

std::vector<LogRecord> JournalLogBackend::load() { return std::exchange(records_, {}); }

Status JournalLogBackend::sync() { return writer_->sync(); }

}  // namespace nonrep::store
