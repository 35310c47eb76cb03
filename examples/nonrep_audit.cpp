// nonrep-audit: independent verification of a durable evidence journal.
//
// Checks, per segment: header + frame CRC32C integrity, data-record
// sequence continuity (within and across segments), and the Merkle-root
// checkpoint each sealed segment ends with. Then decodes the evidence
// records and re-computes the hash chain (chain_i = H(chain_{i-1} ||
// record_i), §3.5) — so an auditor holding only the journal directory can
// confirm that no evidence was altered, dropped or reordered.
//
// Every frame is self-contained (canonical record bytes, payload included,
// plus chain digest), so the journal directory alone is the whole evidence
// trail: there is no side store to resolve references against.
//
// Usage:
//   nonrep_audit [--json] <journal-dir>
//                                 audit an existing journal (exit 1 on any
//                                 defect; an unsealed final segment is
//                                 reported but accepted). With --json the
//                                 report is a single machine-readable JSON
//                                 object on stdout: structural result,
//                                 chain result (with undecodable frames)
//                                 and the final verdict.
//   nonrep_audit [--self-demo]    self-demo: build a journal, crash it with
//                                 a torn record, recover, audit both states
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/writer.hpp"
#include "store/journal_backend.hpp"

using namespace nonrep;
namespace fs = std::filesystem;

namespace {

void print_segment_audit(const journal::AuditReport& audit) {
  for (const auto& seg : audit.segments) {
    std::printf("  %-32s first_seq=%-6llu records=%-6llu %8llu bytes  %s\n",
                fs::path(seg.path).filename().string().c_str(),
                static_cast<unsigned long long>(seg.first_sequence),
                static_cast<unsigned long long>(seg.data_records),
                static_cast<unsigned long long>(seg.file_bytes),
                seg.defect.has_value()       ? ("DEFECT: " + seg.defect->code).c_str()
                : seg.sealed                 ? "sealed, checkpoint OK"
                                             : "open (unsealed tail)");
  }
  for (const auto& p : audit.problems) std::printf("  problem: %s\n", p.c_str());
  std::printf("  structural: %s (%llu records)\n", audit.ok ? "OK" : "FAILED",
              static_cast<unsigned long long>(audit.total_records));
}

void append_json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

int audit_dir(const std::string& dir, bool json = false) {
  if (!json) std::printf("== journal audit: %s ==\n", dir.c_str());
  if (!fs::is_directory(dir)) {
    if (json) {
      std::ostringstream out;
      out << "{\"dir\": ";
      append_json_string(out, dir);
      out << ", \"error\": \"no journal directory\", \"verdict\": \"REJECTED\"}";
      std::printf("%s\n", out.str().c_str());
    } else {
      std::printf("  no journal directory at that path\n  verdict: REJECTED\n");
    }
    return 1;
  }

  const journal::AuditReport audit = journal::Reader::audit(dir);
  if (!json) print_segment_audit(audit);

  auto recovered = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  if (!recovered.ok()) {
    if (json) {
      std::ostringstream out;
      out << "{\"dir\": ";
      append_json_string(out, dir);
      out << ", \"error\": ";
      append_json_string(out, "chain: cannot scan (" + recovered.error().code + ")");
      out << ", \"verdict\": \"REJECTED\"}";
      std::printf("%s\n", out.str().c_str());
    } else {
      std::printf("  chain: cannot scan (%s)\n", recovered.error().code.c_str());
    }
    return 1;
  }
  std::vector<store::LogRecord> records;
  std::size_t undecodable = 0;
  for (const auto& rec : recovered.value().records) {
    auto decoded = store::decode_log_record(rec.payload);
    if (decoded.ok()) {
      records.push_back(std::move(decoded).take());
    } else {
      ++undecodable;
    }
  }

  // Evidence-chain pass: verify the hash chain over the decoded records
  // exactly as a dispute adjudicator would.
  store::EvidenceLog log(std::make_unique<store::MemoryLogBackend>(std::move(records)),
                         std::make_shared<SimClock>(0));
  const Status chain = log.verify_chain();
  if (!json) {
    std::printf("  chain: %s (%zu records, %llu payload bytes%s)\n",
                chain.ok() ? "OK" : ("FAILED: " + chain.error().code).c_str(), log.size(),
                static_cast<unsigned long long>(log.payload_bytes()),
                undecodable ? ", undecodable payloads!" : "");
  }

  const bool ok = audit.ok && chain.ok() && undecodable == 0;
  if (json) {
    std::ostringstream out;
    out << "{\n  \"dir\": ";
    append_json_string(out, dir);
    out << ",\n  \"structural\": {\"ok\": " << (audit.ok ? "true" : "false")
        << ", \"segments\": " << audit.segments.size()
        << ", \"records\": " << audit.total_records
        << ", \"problems\": " << audit.problems.size() << "}";
    out << ",\n  \"chain\": {\"ok\": " << (chain.ok() ? "true" : "false");
    if (!chain.ok()) {
      out << ", \"error\": ";
      append_json_string(out, chain.error().code);
    }
    out << ", \"records\": " << log.size()
        << ", \"payload_bytes\": " << log.payload_bytes()
        << ", \"undecodable\": " << undecodable << "}";
    out << ",\n  \"verdict\": \"" << (ok ? "VERIFIED" : "REJECTED") << "\"\n}";
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("  verdict: %s\n\n", ok ? "VERIFIED" : "REJECTED");
  }
  return ok ? 0 : 1;
}

int demo() {
  const std::string dir = (fs::temp_directory_path() / "nonrep_audit_demo").string();
  fs::remove_all(dir);
  std::printf("demo journal at %s\n\n", dir.c_str());

  // A party logs evidence through the journal backend; rotation is forced
  // small so several sealed segments exist. Each frame carries its own
  // payload on disk, and the party's log is the one in-memory copy.
  auto clock = std::make_shared<SimClock>(1000);
  {
    auto backend = store::JournalLogBackend::open({.dir = dir, .segment_max_bytes = 2048});
    if (!backend.ok()) return 1;
    auto* raw = backend.value().get();
    store::EvidenceLog log(std::move(backend).take(), clock);
    for (int i = 0; i < 40; ++i) {
      log.append(RunId("run-" + std::to_string(i / 4)),
                 i % 2 ? "token.NRR-response" : "token.NRO-request",
                 to_bytes("evidence payload " + std::to_string(i % 8)));
      clock->advance(10);
    }
    if (!log.backend_status().ok()) return 1;
    std::printf("log after 40 appends: %zu records, %llu payload bytes\n\n", log.size(),
                static_cast<unsigned long long>(log.payload_bytes()));

    // Crash mid-append: the writer dies without sealing and the next record
    // only half-reaches the disk.
    raw->writer().simulate_crash();
    auto segments = journal::Segment::list(dir);
    if (!segments.ok() || segments.value().empty()) return 1;
    const Bytes torn = journal::encode_frame(journal::RecordType::kData, log.size(),
                                             to_bytes("torn final record"));
    std::ofstream out(segments.value().back(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size() / 2));
  }

  std::printf("-- after crash (torn final record) --\n");
  (void)audit_dir(dir);  // expected: REJECTED, torn tail reported

  std::printf("-- after recovery --\n");
  {
    auto reopened = store::JournalLogBackend::open({.dir = dir});
    if (!reopened.ok()) return 1;
    const auto truncated = reopened.value()->recovery().truncated_bytes;
    store::EvidenceLog log(std::move(reopened).take(), clock);
    std::printf("recovery truncated %llu torn bytes; %zu records survive "
                "(%llu payload bytes)\n\n",
                static_cast<unsigned long long>(truncated), log.size(),
                static_cast<unsigned long long>(log.payload_bytes()));
    // Clean shutdown seals the tail segment.
  }
  return audit_dir(dir);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() > 1 || (json && positional.empty())) {
    std::fprintf(stderr, "usage: %s [--json] journal-dir | --self-demo\n", argv[0]);
    return 2;
  }
  if (positional.size() == 1 && positional[0] != "--self-demo") {
    return audit_dir(positional[0], json);
  }
  return demo();
}
