#include "store/journal_backend.hpp"

#include <filesystem>

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
  auto writer = journal::Writer::resume(options, recovered.value());
  if (!writer) return writer.error();
  return std::unique_ptr<JournalLogBackend>(new JournalLogBackend(
      std::move(writer).take(), std::move(recovered).take()));
}

Status JournalLogBackend::append(const LogRecord& record) {
  auto staged = append_async(record);
  if (!staged) return staged.error();
  // Classic blocking contract: honor the policy's wait here.
  if (staged.value().policy_blocks) return staged.value().durable.wait();
  return Status::ok_status();
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
  return AppendReceipt{std::move(ticket.value().durable), ticket.value().policy_blocks};
}

Status JournalLogBackend::health() const { return writer_->health(); }

std::vector<LogRecord> JournalLogBackend::load() {
  std::vector<LogRecord> out;
  out.reserve(recovery_.records.size());
  for (const auto& rec : recovery_.records) {
    auto decoded = decode_log_record(rec.payload);
    if (decoded) out.push_back(std::move(decoded).take());
    // An undecodable payload survives in the journal (its CRC was fine) but
    // cannot enter the evidence log; verify_chain reports the gap.
  }
  return out;
}

Status JournalLogBackend::sync() { return writer_->sync(); }

}  // namespace nonrep::store
