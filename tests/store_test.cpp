#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "journal/reader.hpp"
#include "journal/writer.hpp"
#include "store/evidence_log.hpp"
#include "store/journal_backend.hpp"
#include "store/state_store.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::store {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<SimClock> make_clock() { return std::make_shared<SimClock>(1000); }

std::string temp_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / ("nonrep_store_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

TEST(EvidenceLog, AppendAndFind) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r1"), "token.NRO-request", to_bytes("payload-1"));
  log.append(RunId("r2"), "token.NRR-request", to_bytes("payload-2"));
  log.append(RunId("r1"), "token.NRO-response", to_bytes("payload-3"));

  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.find_run(RunId("r1")).size(), 2u);
  auto rec = log.find(RunId("r1"), "token.NRO-response");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "payload-3");
  EXPECT_FALSE(log.find(RunId("r1"), "token.missing").has_value());
}

TEST(EvidenceLog, ChainVerifies) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  for (int i = 0; i < 20; ++i) {
    log.append(RunId("r"), "kind", to_bytes("p" + std::to_string(i)));
  }
  EXPECT_TRUE(log.verify_chain().ok());
}

TEST(EvidenceLog, SequenceAndTimeRecorded) {
  auto clock = make_clock();
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), clock);
  log.append(RunId("r"), "k", to_bytes("a"));
  clock->advance(10);
  log.append(RunId("r"), "k", to_bytes("b"));
  EXPECT_EQ(log.records()[0].sequence, 0u);
  EXPECT_EQ(log.records()[1].sequence, 1u);
  EXPECT_EQ(log.records()[1].time - log.records()[0].time, 10u);
}

TEST(EvidenceLog, PayloadBytesAccumulated) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r"), "k", Bytes(100, 1));
  log.append(RunId("r"), "k", Bytes(50, 2));
  EXPECT_EQ(log.payload_bytes(), 150u);
}

TEST(EvidenceLog, ChainDigestDetectsTamper) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  log.append(RunId("r"), "k", to_bytes("original"));
  // Simulate a tampered reload: mutate a record and recheck manually.
  LogRecord tampered = log.records()[0];
  tampered.payload = to_bytes("doctored");
  EXPECT_NE(chain_digest(crypto::Digest{}, tampered), log.records()[0].chain);
}

TEST(EvidenceLog, EmptyChainVerifies) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  EXPECT_TRUE(log.verify_chain().ok());
}

// ---- pipelined append receipts ----

TEST(EvidenceLog, AsyncReceiptFromSynchronousBackendIsSettled) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  auto receipt = log.append_async(RunId("r"), "k", to_bytes("a"));
  EXPECT_EQ(log.records().back().sequence, 0u);
  // A backend with nothing asynchronous about it hands back an
  // already-settled receipt: ready and ok.
  EXPECT_TRUE(receipt.durable.ready());
  EXPECT_TRUE(log.settle(receipt).ok());
  EXPECT_TRUE(log.backend_status().ok());
}

TEST(EvidenceLog, JournalReceiptsSettleAndChainStaysOrdered) {
  const std::string dir = temp_dir("receipts");
  auto backend = JournalLogBackend::open(
      {.dir = dir});
  ASSERT_TRUE(backend.ok());
  EvidenceLog log(std::move(backend).take(), make_clock());
  // Stage a burst without waiting, then settle all receipts — the barrier
  // waits overlap, and every record must still come out durable and chained.
  std::vector<AppendReceipt> receipts;
  for (int i = 0; i < 10; ++i) {
    auto receipt = log.append_async(RunId("r"), "k", to_bytes("p" + std::to_string(i)));
    EXPECT_EQ(log.records().back().sequence, static_cast<std::uint64_t>(i));
    receipts.push_back(std::move(receipt));
  }
  for (const auto& r : receipts) EXPECT_TRUE(log.settle(r).ok());
  EXPECT_TRUE(log.backend_status().ok());
  EXPECT_TRUE(log.verify_chain().ok());

  EvidenceLog reloaded(JournalLogBackend::open({.dir = dir}).take(), make_clock());
  EXPECT_EQ(reloaded.size(), 10u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(EvidenceLog, BackendHealthSurfacesPostReceiptFailures) {
  const std::string dir = temp_dir("receipt_health");
  auto backend = JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok());
  auto* jb = backend.value().get();
  EvidenceLog log(std::move(backend).take(), make_clock());
  auto receipt = log.append_async(RunId("r"), "k", to_bytes("staged"));
  EXPECT_TRUE(log.backend_status().ok());
  // The writer dies with the staged record's barrier requested but never
  // awaited: the failure must surface through backend_status() (via
  // LogBackend::health) even though nobody settle()d the receipt.
  jb->writer().simulate_crash();
  auto status = log.backend_status();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "journal.crashed");
  // Settling afterwards reports the crash, unless the barrier retired
  // before it. Which one happens depends on timing here; the journal's
  // SyncStage.CrashFailsTicketsOfTheQueuedBarrier pins the crashed side.
  auto settled = log.settle(receipt);
  if (!settled.ok()) EXPECT_EQ(settled.error().code, "journal.crashed");
}

TEST(EvidenceLog, RefusedStagingComesBackAsFailedReceipt) {
  const std::string dir = temp_dir("receipt_refused");
  auto backend =
      JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok());
  auto* jb = backend.value().get();
  EvidenceLog log(std::move(backend).take(), make_clock());
  jb->writer().simulate_crash();
  // The backend refuses to stage at all: the receipt is already settled
  // with that error, so a caller settling it cannot mistake the record for
  // durable evidence.
  auto receipt = log.append_async(RunId("r"), "k", to_bytes("never persisted"));
  EXPECT_TRUE(receipt.durable.ready());
  auto settled = log.settle(receipt);
  ASSERT_FALSE(settled.ok());
  EXPECT_EQ(settled.error().code, "journal.closed");
  EXPECT_FALSE(log.backend_status().ok());
}

TEST(StateStore, PutGetRoundTrip) {
  StateStore store;
  const Bytes state = to_bytes("shared state v1");
  const crypto::Digest d = store.put(state);
  auto got = store.get(d);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), state);
  EXPECT_TRUE(store.contains(d));
}

TEST(StateStore, DigestIsContentAddress) {
  StateStore store;
  const crypto::Digest d1 = store.put(to_bytes("same"));
  const crypto::Digest d2 = store.put(to_bytes("same"));
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(store.size(), 1u);
}

TEST(StateStore, UnknownDigest) {
  StateStore store;
  crypto::Digest d{};
  auto got = store.get(d);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.unknown_digest");
}

TEST(StateStore, StoredBytesCounted) {
  StateStore store;
  store.put(Bytes(10, 1));
  store.put(Bytes(10, 1));  // duplicate: not recounted
  store.put(Bytes(5, 2));
  EXPECT_EQ(store.stored_bytes(), 15u);
}

TEST(StateStore, GetOrPutReportsFreshness) {
  StateStore store;
  auto [d1, fresh1] = store.get_or_put(to_bytes("state"));
  EXPECT_TRUE(fresh1);
  auto [d2, fresh2] = store.get_or_put(to_bytes("state"));
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stored_bytes(), 5u);  // the duplicate was not recounted
}

TEST(StateStore, SnapshotRestoreRoundTrip) {
  const std::string dir = temp_dir("snapshot");
  StateStore original;
  for (int i = 0; i < 40; ++i) original.put(to_bytes("state-" + std::to_string(i)));
  ASSERT_TRUE(original.snapshot_to(dir).ok());

  // The snapshot itself is a journal that audits clean.
  auto audit = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);

  StateStore restored;
  restored.put(to_bytes("state-7"));  // overlap: must not be double-counted
  auto fresh = restored.restore_from(dir);
  ASSERT_TRUE(fresh.ok()) << fresh.error().detail;
  EXPECT_EQ(fresh.value(), 39u);
  EXPECT_EQ(restored.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const Bytes blob = to_bytes("state-" + std::to_string(i));
    auto got = restored.get(crypto::Sha256::hash(blob));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value(), blob);
  }
}

TEST(StateStore, SnapshotRefusesExistingJournal) {
  const std::string dir = temp_dir("snapshot_exists");
  StateStore store;
  store.put(to_bytes("a"));
  ASSERT_TRUE(store.snapshot_to(dir).ok());
  auto second = store.snapshot_to(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, "store.snapshot_exists");
}

TEST(StateStore, RestoreRejectsCorruptSnapshot) {
  const std::string dir = temp_dir("snapshot_corrupt");
  StateStore store;
  for (int i = 0; i < 10; ++i) store.put(Bytes(64, static_cast<std::uint8_t>(i)));
  ASSERT_TRUE(store.snapshot_to(dir).ok());
  // Flip one byte somewhere in the middle of the single segment.
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir)) seg = e.path().string();
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(200);
    char c;
    f.seekg(200);
    f.get(c);
    c = static_cast<char>(c ^ 0x20);
    f.seekp(200);
    f.put(c);
  }
  StateStore restored;
  auto result = restored.restore_from(dir);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "store.snapshot_corrupt");
}

// ---- record codec ----

TEST(LogRecordCodec, RejectsTrailingBytes) {
  EvidenceLog log(std::make_unique<MemoryLogBackend>(), make_clock());
  const LogRecord rec = log.append(RunId("r1"), "token.NRO-request", to_bytes("evidence"));
  const Bytes encoded = encode_log_record(rec);
  auto round_trip = decode_log_record(encoded);
  ASSERT_TRUE(round_trip.ok());
  EXPECT_EQ(encode_log_record(round_trip.value()), encoded);

  // One junk byte after the chain digest.
  Bytes outer = encoded;
  outer.push_back(0x00);
  auto outer_decoded = decode_log_record(outer);
  ASSERT_FALSE(outer_decoded.ok());
  EXPECT_EQ(outer_decoded.error().code, "log.trailing_bytes");

  // One junk byte after the payload, inside the canonical blob. The chain
  // digest covers only what canonical() re-encodes, so a lenient decoder
  // would hand back a record that still verifies.
  Bytes canonical = rec.canonical();
  canonical.push_back(0x00);
  BinaryWriter inner;
  inner.bytes(canonical);
  inner.bytes(crypto::digest_bytes(rec.chain));
  auto inner_decoded = decode_log_record(std::move(inner).take());
  ASSERT_FALSE(inner_decoded.ok());
  EXPECT_EQ(inner_decoded.error().code, "log.trailing_bytes");
}

// ---- journal-backed evidence log ----

TEST(JournalBackend, RoundTripAcrossRestart) {
  const std::string dir = temp_dir("backend_roundtrip");
  auto clock = make_clock();
  {
    auto backend = JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(backend.ok()) << backend.error().detail;
    EvidenceLog log(std::move(backend).take(), clock);
    log.append(RunId("r1"), "token.NRO-request", to_bytes("persisted"));
    log.append(RunId("r2"), "vote", Bytes{0x00, 0xff, 0x10});
    EXPECT_TRUE(log.backend_status().ok());
  }
  auto backend = JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok());
  EvidenceLog reloaded(std::move(backend).take(), clock);
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
  auto rec = reloaded.find(RunId("r1"), "token.NRO-request");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "persisted");
  // Appends continue the chain and the journal sequence.
  reloaded.append(RunId("r3"), "decision", to_bytes("more"));
  EXPECT_TRUE(reloaded.backend_status().ok());
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(JournalBackend, SequenceDivergenceSurfaces) {
  const std::string dir = temp_dir("backend_divergence");
  auto backend =
      JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok());
  // Hand the backend a record whose embedded sequence does not match the
  // journal's: the mismatch must be reported, not silently persisted.
  LogRecord rogue;
  rogue.sequence = 5;  // journal would assign 0
  rogue.kind = "k";
  auto status = backend.value()->append(rogue);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "journal.sequence_divergence");
  // The rogue record never entered the journal: the real sequence-0 record
  // still lands, and a reload sees only it.
  LogRecord genuine;
  genuine.sequence = 0;
  genuine.kind = "k";
  EXPECT_TRUE(backend.value()->append(genuine).ok());
  backend.value()->writer().simulate_crash();
  auto reopened = JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(reopened.ok());
  EvidenceLog reloaded(std::move(reopened).take(), make_clock());
  EXPECT_EQ(reloaded.size(), 1u);
}

TEST(JournalBackend, UndecodableRecordRefusesOpen) {
  const std::string dir = temp_dir("backend_undecodable");
  {
    auto backend = JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(backend.ok());
    EvidenceLog log(std::move(backend).take(), make_clock());
    log.append(RunId("r1"), "token.NRO-request", to_bytes("genuine"));
    log.append(RunId("r1"), "token.NRR-response", to_bytes("genuine too"));
  }
  {
    // A CRC-valid frame whose payload is not a log record: framing alone
    // cannot tell it from evidence.
    auto w = journal::Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->append(to_bytes("not a log record")).ok());
    ASSERT_TRUE(w.value()->close().ok());
  }
  // Loading the two good records and dropping the third would leave the
  // log one record behind the journal; the open is refused instead.
  auto reopened = JournalLogBackend::open({.dir = dir});
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().code, "journal.undecodable_record");
}

TEST(StateStore, ManyDistinctStates) {
  StateStore store;
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < 100; ++i) {
    digests.push_back(store.put(to_bytes("state-" + std::to_string(i))));
  }
  EXPECT_EQ(store.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto got = store.get(digests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_string(got.value()), "state-" + std::to_string(i));
  }
}

TEST(StateStore, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(StateStore(1).shard_count(), 1u);
  EXPECT_EQ(StateStore(5).shard_count(), 8u);
  EXPECT_EQ(StateStore(16).shard_count(), 16u);
  EXPECT_EQ(StateStore(0).shard_count(), 1u);  // degenerate knob value
}

TEST(StateStore, EightThreadMixedReadWrite) {
  // Mixed get_or_put/get/contains from 8 threads, over a blob set small
  // enough that every thread keeps colliding on the same digests. Exactly
  // one insert per distinct blob must win; every read must see the full
  // content. (The TSan job is what gives this test its teeth.)
  constexpr int kThreads = 8;
  constexpr int kBlobs = 32;
  constexpr int kOpsPerThread = 400;

  StateStore store(8);
  std::vector<Bytes> blobs;
  std::vector<crypto::Digest> digests;
  for (int i = 0; i < kBlobs; ++i) {
    blobs.push_back(Bytes(64 + static_cast<std::size_t>(i),
                          static_cast<std::uint8_t>(i)));
    digests.push_back(crypto::Sha256::hash(blobs.back()));
  }

  std::atomic<int> inserted{0};
  std::atomic<int> read_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto idx = static_cast<std::size_t>((t * 31 + i) % kBlobs);
        switch (i % 3) {
          case 0:
            if (store.get_or_put(blobs[idx]).second) inserted.fetch_add(1);
            break;
          case 1: {
            auto got = store.get(digests[idx]);
            // Unknown digest is legal early on; wrong content never is.
            if (got.ok() && got.value() != blobs[idx]) read_failures.fetch_add(1);
            break;
          }
          default:
            (void)store.contains(digests[idx]);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(inserted.load(), kBlobs);  // concurrent colliding puts: one winner each
  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kBlobs));
  std::uint64_t want_bytes = 0;
  for (const auto& b : blobs) want_bytes += b.size();
  EXPECT_EQ(store.stored_bytes(), want_bytes);
  for (int i = 0; i < kBlobs; ++i) {
    auto got = store.get(digests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got.value(), blobs[static_cast<std::size_t>(i)]) << i;
  }
}

// ---- content-addressed object store ----

TEST(ObjectStore, IdCoversTypedHeader) {
  // The id is the hash of {typesig u32, size u64} || payload, so the same
  // bytes filed under two types are two objects.
  const Bytes payload = to_bytes("evidence bytes");
  BinaryWriter w;
  w.u32(kTypeToken);
  w.u64(payload.size());
  Bytes encoded = std::move(w).take();
  append(encoded, payload);
  EXPECT_EQ(object_id(kTypeToken, payload), crypto::Sha256::hash(encoded));
  EXPECT_NE(object_id(kTypeToken, payload), object_id(kTypeBlob, payload));
}

TEST(ObjectStore, PutGetRoundTrip) {
  ObjectStore store;
  const Bytes payload = to_bytes("token bytes");
  auto put = store.put(kTypeToken, payload);
  EXPECT_TRUE(put.fresh);
  auto got = store.get(put.id, kTypeToken);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), payload);
  auto sig = store.typesig_of(put.id);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value(), kTypeToken);
  EXPECT_TRUE(store.contains(put.id));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, TypesigMismatchIsAnErrorNotACast) {
  ObjectStore store;
  const auto put = store.put(kTypeToken, to_bytes("typed payload"));
  auto got = store.get(put.id, kTypeBlob);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.typesig_mismatch");
  // The type is part of the identity: the same bytes filed under another
  // typesig are a different object with a different id.
  const auto other = store.put(kTypeBlob, to_bytes("typed payload"));
  EXPECT_TRUE(other.fresh);
  EXPECT_NE(other.id, put.id);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.get(other.id, kTypeBlob).ok());
}

TEST(ObjectStore, UnknownObject) {
  ObjectStore store;
  auto got = store.get(ObjectId{}, kTypeBlob);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, "store.unknown_object");
  EXPECT_FALSE(store.typesig_of(ObjectId{}).ok());
  EXPECT_FALSE(store.contains(ObjectId{}));
}

TEST(ObjectStore, DedupCounters) {
  ObjectStore store;
  const Bytes a(100, 0x11);
  const Bytes b(50, 0x22);
  EXPECT_TRUE(store.put(kTypeBlob, a).fresh);
  EXPECT_FALSE(store.put(kTypeBlob, a).fresh);
  EXPECT_FALSE(store.put(kTypeBlob, a).fresh);
  EXPECT_TRUE(store.put(kTypeBlob, b).fresh);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stored_bytes(), 150u);
  EXPECT_EQ(store.logical_bytes(), 350u);
  EXPECT_EQ(store.dedup_hits(), 2u);
  EXPECT_DOUBLE_EQ(store.dedup_ratio(), 350.0 / 150.0);
}

TEST(ObjectStore, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(ObjectStore(1).shard_count(), 1u);
  EXPECT_EQ(ObjectStore(5).shard_count(), 8u);
  EXPECT_EQ(ObjectStore(16).shard_count(), 16u);
  EXPECT_EQ(ObjectStore(0).shard_count(), 1u);
}

TEST(ObjectStore, EightThreadDoublePutIsIdempotent) {
  // Every thread puts the whole payload set, so each distinct object sees
  // eight racing puts. Exactly one must report fresh; afterwards the store
  // holds one copy each and the counters balance. (TSan gives this teeth.)
  constexpr int kThreads = 8;
  constexpr int kPayloads = 64;

  ObjectStore store(8);
  std::vector<Bytes> payloads;
  std::uint64_t logical_per_pass = 0;
  for (int i = 0; i < kPayloads; ++i) {
    payloads.push_back(Bytes(32 + static_cast<std::size_t>(i),
                             static_cast<std::uint8_t>(i)));
    logical_per_pass += payloads.back().size();
  }

  std::atomic<int> fresh{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPayloads; ++i) {
        const auto idx = static_cast<std::size_t>((i * 7 + t) % kPayloads);
        auto put = store.put(kTypeBlob, payloads[idx]);
        if (put.fresh) fresh.fetch_add(1);
        auto got = store.get(put.id, kTypeBlob);
        if (!got.ok() || got.value() != payloads[idx]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(fresh.load(), kPayloads);  // one winner per distinct object
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kPayloads));
  EXPECT_EQ(store.stored_bytes(), logical_per_pass);
  EXPECT_EQ(store.logical_bytes(), logical_per_pass * kThreads);
  EXPECT_EQ(store.dedup_hits(), static_cast<std::uint64_t>(kPayloads * (kThreads - 1)));
}

TEST(EvidenceLog, AttachedStoreHoldsNoPayloadCopy) {
  // A record's payload lives only in its log: two logs built with a shared
  // store, appending and reloading, leave the store exactly as it was, and
  // their chain digests equal a store-less log's.
  auto objects = std::make_shared<ObjectStore>();
  objects->put(kTypeCert, to_bytes("a certificate filed before the logs"));
  const std::size_t objects_before = objects->size();
  const std::uint64_t bytes_before = objects->stored_bytes();

  auto clock = make_clock();
  EvidenceLog a(std::make_unique<MemoryLogBackend>(), clock, objects);
  EvidenceLog b(std::make_unique<MemoryLogBackend>(), clock, objects);
  EvidenceLog plain(std::make_unique<MemoryLogBackend>(), clock);
  for (int i = 0; i < 6; ++i) {
    const Bytes payload = to_bytes("shared token " + std::to_string(i % 2));
    a.append(RunId("r"), "token.NRO-request", payload);
    b.append_async(RunId("r"), "token.NRO-request", payload);
    plain.append(RunId("r"), "token.NRO-request", payload);
  }
  EvidenceLog reloaded(std::make_unique<MemoryLogBackend>(a.records()), clock, objects);
  ASSERT_EQ(reloaded.size(), 6u);
  EXPECT_TRUE(reloaded.verify_chain().ok());

  EXPECT_EQ(objects->size(), objects_before);
  EXPECT_EQ(objects->stored_bytes(), bytes_before);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.records()[i].chain, plain.records()[i].chain) << i;
    EXPECT_EQ(b.records()[i].chain, plain.records()[i].chain) << i;
  }
}

// ---- one self-contained journal per party ----

TEST(JournalBackend, ReloadedLogVerifiesFindsAndAppends) {
  const std::string dir = temp_dir("reload_roundtrip");
  auto clock = make_clock();
  {
    auto backend =
        JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(backend.ok()) << backend.error().detail;
    EvidenceLog log(std::move(backend).take(), clock);
    for (int i = 0; i < 12; ++i) {
      log.append(RunId("r" + std::to_string(i % 3)), "token.NRO-request",
                 to_bytes("payload " + std::to_string(i % 4)));
    }
    EXPECT_TRUE(log.backend_status().ok());
  }
  // One journal: every frame carries its own payload, nothing else on disk.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "objects"));

  // The two-argument open and the store-taking EvidenceLog constructor
  // still compile; both ignore the store.
  auto ignored = std::make_shared<ObjectStore>();
  auto backend = JournalLogBackend::open({.dir = dir}, ignored);
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EvidenceLog reloaded(std::move(backend).take(), clock, ignored);
  ASSERT_EQ(reloaded.size(), 12u);
  EXPECT_TRUE(reloaded.verify_chain().ok());
  auto rec = reloaded.find(RunId("r1"), "token.NRO-request");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(to_string(rec->payload), "payload 1");
  // Appends keep working after restart.
  reloaded.append(RunId("r9"), "token.NRR-response", to_bytes("fresh"));
  EXPECT_TRUE(reloaded.backend_status().ok());
  EXPECT_TRUE(reloaded.verify_chain().ok());
}

TEST(JournalBackend, CrashRecoveryTruncatesTornTail) {
  const std::string dir = temp_dir("backend_crash");
  auto clock = make_clock();
  std::size_t live_records = 0;
  {
    auto backend =
        JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(backend.ok());
    auto* raw = backend.value().get();
    EvidenceLog log(std::move(backend).take(), clock);
    for (int i = 0; i < 10; ++i) {
      log.append(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i % 2)));
    }
    ASSERT_TRUE(log.backend_status().ok());
    live_records = log.size();
    raw->writer().simulate_crash();
    // Torn final record: half a frame reaches the journal.
    auto segments = journal::Segment::list(dir);
    ASSERT_TRUE(segments.ok());
    ASSERT_FALSE(segments.value().empty());
    const Bytes torn =
        journal::encode_frame(journal::RecordType::kData, live_records, to_bytes("torn"));
    std::ofstream out(segments.value().back(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size() / 2));
  }

  auto backend = JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EXPECT_GT(backend.value()->recovery().truncated_bytes, 0u);
  EvidenceLog log(std::move(backend).take(), clock);
  EXPECT_EQ(log.size(), live_records);
  EXPECT_TRUE(log.verify_chain().ok());
  EXPECT_EQ(to_string(log.records().back().payload), "p1");
}

TEST(JournalBackend, OneBarrierCoversPayloadsAcrossCrash) {
  // Stage a burst without waiting: one wait on the backend must make every
  // staged record durable *with* its payload, since there is no second
  // journal to lose it in.
  const std::string dir = temp_dir("backend_one_barrier");
  auto clock = make_clock();
  {
    auto backend = JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(backend.ok());
    auto* raw = backend.value().get();
    EvidenceLog log(std::move(backend).take(), clock);
    for (int i = 0; i < 8; ++i) {
      log.append_async(RunId("r"), "token.NRO-request", to_bytes("p" + std::to_string(i)));
    }
    ASSERT_TRUE(log.backend_status().ok());
    ASSERT_TRUE(raw->sync().ok());
    raw->writer().simulate_crash();
  }

  auto backend = JournalLogBackend::open({.dir = dir});
  ASSERT_TRUE(backend.ok()) << backend.error().detail;
  EvidenceLog log(std::move(backend).take(), clock);
  ASSERT_EQ(log.size(), 8u);
  EXPECT_TRUE(log.verify_chain().ok());
  EXPECT_EQ(to_string(log.records()[7].payload), "p7");
}

TEST(JournalBackend, RefusesSeparateObjectJournalLayout) {
  // Older builds kept payloads in a second journal under <dir>/objects.
  // Such a directory is refused outright rather than half-read.
  const std::string dir = temp_dir("backend_old_layout");
  fs::create_directories(fs::path(dir) / "objects");
  auto backend = JournalLogBackend::open({.dir = dir});
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.error().code, "journal.unsupported_format");
}

TEST(StateStore, ShardedSnapshotIsOneCoherentJournal) {
  const std::string dir = temp_dir("sharded_snapshot");
  StateStore store(4);
  util::ThreadPool pool(4);
  for (int t = 0; t < 4; ++t) {
    pool.submit([&store, t] {
      for (int i = 0; i < 50; ++i) {
        store.put(to_bytes("blob-" + std::to_string(t) + "-" + std::to_string(i)));
      }
    });
  }
  pool.wait_idle();
  ASSERT_TRUE(store.snapshot_to(dir).ok());

  StateStore restored(2);  // different shard count: the journal is agnostic
  auto fresh = restored.restore_from(dir);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), 200u);
  EXPECT_EQ(restored.size(), store.size());
  EXPECT_EQ(restored.stored_bytes(), store.stored_bytes());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nonrep::store
