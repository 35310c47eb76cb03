// Content-addressed object store: intern micro-costs, the dedup ratio on a
// realistic evidence mix (interning a recovered journal into a fresh
// store), and the headline memoization ROI — cold vs memoized audit of a
// ~1M-record journalled log where every token recurs fleet-style (~16 k
// distinct tokens, ~61 references each).
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.hpp"
#include "core/evidence.hpp"
#include "scenario/world.hpp"
#include "store/journal_backend.hpp"
#include "store/object_store.hpp"

namespace {

using namespace nonrep;
namespace fs = std::filesystem;

constexpr std::size_t kParties = 4;
constexpr std::size_t kTokensPerParty = 4096;                       // 16384 distinct
constexpr std::size_t kDistinct = kParties * kTokensPerParty;
constexpr std::size_t kRepetitions = 61;                            // ~1M records
constexpr std::size_t kRecords = kDistinct * kRepetitions;

std::string bench_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("nonrep_bench_objectstore_" + name);
  fs::remove_all(dir);
  return dir.string();
}

// One shared corpus for the audit benches: a world of kParties orgs, each
// issuing kTokensPerParty distinct tokens, every token appended
// kRepetitions times (round-robin, so duplicates are spread out the way
// fleet traffic spreads them) into one journalled log.
// Built lazily on first use and reused by every benchmark in the binary.
struct AuditCorpus {
  scenario::World world{42, /*rsa_bits=*/512};
  std::string dir;
  std::shared_ptr<store::EvidenceLog> log;
  core::EvidenceService* auditor = nullptr;
  std::string error;

  static AuditCorpus& instance() {
    static AuditCorpus corpus;
    return corpus;
  }

  AuditCorpus() {
    dir = bench_dir("audit");
    nonrep::bench::track_disk(dir);
    for (std::size_t p = 0; p < kParties; ++p) {
      world.add_party("p" + std::to_string(p));
    }
    auditor = world.party(0).evidence.get();

    std::vector<store::LogRecord> seeds;  // (run, kind, payload) templates
    std::vector<Bytes> payloads;
    payloads.reserve(kDistinct);
    std::vector<RunId> runs;
    runs.reserve(kDistinct);
    std::vector<std::string> kinds;
    kinds.reserve(kDistinct);
    for (std::size_t p = 0; p < kParties; ++p) {
      auto& party = world.party(p);
      for (std::size_t t = 0; t < kTokensPerParty; ++t) {
        core::EvidenceToken token;
        token.type = core::EvidenceType::kNroRequest;
        token.run = RunId("run-" + std::to_string(p) + "-" + std::to_string(t));
        token.issuer = party.id;
        token.issued_at = world.clock->now();
        token.subject = crypto::Sha256::hash(to_bytes(token.run.str()));
        auto sig = party.signer->sign(token.tbs());
        if (!sig.ok()) {
          error = "sign failed: " + sig.error().code;
          return;
        }
        token.signature = std::move(sig).take();
        runs.push_back(token.run);
        kinds.push_back(core::log_kind(token.type));
        payloads.push_back(token.encode());
      }
    }

    auto backend =
        store::JournalLogBackend::open({.dir = dir, .segment_max_bytes = 32ull << 20});
    if (!backend.ok()) {
      error = "journal open failed: " + backend.error().code;
      return;
    }
    auto* raw = backend.value().get();
    log = std::make_shared<store::EvidenceLog>(std::move(backend).take(), world.clock);
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      for (std::size_t t = 0; t < kDistinct; ++t) {
        log->append_async(runs[t], kinds[t], payloads[t]);
      }
    }
    if (auto s = log->backend_status(); !s.ok()) {
      error = "append failed: " + s.error().code;
      return;
    }
    // Staged without waiting (each record's barrier folds into the one in
    // flight); one sync makes the whole corpus durable.
    if (auto s = raw->sync(); !s.ok()) error = "sync failed: " + s.error().code;
  }
};

/// Interning distinct 256-byte payloads: SHA-256 + one shard insert.
void BM_ObjectStorePutDistinct(benchmark::State& state) {
  store::ObjectStore store;
  Bytes payload(256, 0x5a);
  std::uint64_t n = 0;
  for (auto _ : state) {
    std::memcpy(payload.data(), &n, sizeof(n));
    ++n;
    auto put = store.put(store::kTypeBlob, payload);
    benchmark::DoNotOptimize(put);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_ObjectStorePutDistinct)->Unit(benchmark::kNanosecond);

/// Re-interning the same payload: SHA-256 + one shard probe, no storage.
void BM_ObjectStorePutDuplicate(benchmark::State& state) {
  store::ObjectStore store;
  const Bytes payload(256, 0xc3);
  store.put(store::kTypeBlob, payload);
  for (auto _ : state) {
    auto put = store.put(store::kTypeBlob, payload);
    benchmark::DoNotOptimize(put);
  }
  state.counters["dedup_hits"] = static_cast<double>(store.dedup_hits());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * payload.size()));
}
BENCHMARK(BM_ObjectStorePutDuplicate)->Unit(benchmark::kNanosecond);

/// Object typesig for a record kind: "token.*" payloads are evidence
/// tokens, "tsa.*" are TSA countersignatures, anything else is a blob.
std::uint32_t typesig_for_kind(std::string_view kind) {
  if (kind.starts_with("token.")) return store::kTypeToken;
  if (kind.starts_with("tsa.")) return store::kTypeTimestamp;
  return store::kTypeBlob;
}

/// Crash-recovery rebuild of the ~1M-record journal: scan it (CRCs,
/// sequence continuity), decode every self-contained record frame and intern its
/// payload into a fresh store. The store's counters give the dedup ratio of
/// the corpus.
void BM_JournalRecoveryRebuild(benchmark::State& state) {
  auto& corpus = AuditCorpus::instance();
  if (!corpus.error.empty()) {
    state.SkipWithError(corpus.error.c_str());
    return;
  }
  std::unique_ptr<store::ObjectStore> rebuilt;
  for (auto _ : state) {
    auto scan = journal::Reader::recover(corpus.dir, journal::RecoverMode::kScanOnly);
    if (!scan.ok() || scan.value().records.size() != kRecords) {
      state.SkipWithError("journal scan failed");
      break;
    }
    rebuilt = std::make_unique<store::ObjectStore>();
    std::size_t decoded = 0;
    for (const auto& frame : scan.value().records) {
      auto rec = store::decode_log_record(frame.payload);
      if (!rec.ok()) break;
      rebuilt->put(typesig_for_kind(rec.value().kind), rec.value().payload);
      ++decoded;
    }
    benchmark::DoNotOptimize(rebuilt);
    if (decoded != kRecords || rebuilt->size() != kDistinct) {
      state.SkipWithError("journal rebuild failed");
      break;
    }
  }
  state.counters["records"] = static_cast<double>(kRecords);
  state.counters["records_per_s"] = benchmark::Counter(
      static_cast<double>(kRecords * static_cast<std::uint64_t>(state.iterations())),
      benchmark::Counter::kIsRate);
  if (rebuilt) {
    state.counters["dedup_ratio"] = rebuilt->dedup_ratio();
    state.counters["stored_bytes"] = static_cast<double>(rebuilt->stored_bytes());
    state.counters["logical_bytes"] = static_cast<double>(rebuilt->logical_bytes());
    state.counters["store_objects"] = static_cast<double>(rebuilt->size());
  }
}
BENCHMARK(BM_JournalRecoveryRebuild)->Iterations(1)->Unit(benchmark::kMillisecond);

/// Cold audit: trust caches dropped each iteration, so the full hash chain
/// is recomputed and every distinct token re-verified (RSA).
void BM_ColdAudit(benchmark::State& state) {
  auto& corpus = AuditCorpus::instance();
  if (!corpus.error.empty()) {
    state.SkipWithError(corpus.error.c_str());
    return;
  }
  core::EvidenceService::LogAuditReport report;
  for (auto _ : state) {
    state.PauseTiming();
    corpus.auditor->credentials().clear_caches();  // also stales the segment memo (epoch)
    state.ResumeTiming();
    report = corpus.auditor->audit_log(*corpus.log);
    benchmark::DoNotOptimize(report);
    if (!report.verdict.ok() || report.records != kRecords) {
      state.SkipWithError("cold audit failed");
      break;
    }
  }
  state.counters["records"] = static_cast<double>(report.records);
  state.counters["distinct_tokens"] = static_cast<double>(report.distinct_tokens);
  state.counters["segments"] = static_cast<double>(report.segments);
}
BENCHMARK(BM_ColdAudit)->Iterations(2)->Unit(benchmark::kMillisecond);

/// Memoized audit of the identical journal: signature and decode work is
/// skipped, but the SHA-256 chain is recomputed to tie the in-memory bytes
/// to the memo key. Hash-bound; rides the SHA-NI dispatch where the CPU has
/// it.
void BM_MemoizedAuditRehash(benchmark::State& state) {
  auto& corpus = AuditCorpus::instance();
  if (!corpus.error.empty()) {
    state.SkipWithError(corpus.error.c_str());
    return;
  }
  auto warm = corpus.auditor->audit_log(*corpus.log);
  if (!warm.verdict.ok()) {
    state.SkipWithError("warm audit failed");
    return;
  }
  core::EvidenceService::LogAuditReport report;
  for (auto _ : state) {
    report = corpus.auditor->audit_log(*corpus.log);
    benchmark::DoNotOptimize(report);
    if (!report.verdict.ok() || report.records != kRecords ||
        report.segments_memoized != report.segments) {
      state.SkipWithError("memoized audit fell back to the cold path");
      break;
    }
  }
  state.counters["records"] = static_cast<double>(report.records);
  state.counters["segments_memoized"] = static_cast<double>(report.segments_memoized);
}
BENCHMARK(BM_MemoizedAuditRehash)->Unit(benchmark::kMillisecond);

}  // namespace
