// Durable evidence journal: framing, group commit, rotation + Merkle seals,
// crash recovery and audit.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "crypto/merkle.hpp"
#include "journal/format.hpp"
#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/sync_stage.hpp"
#include "journal/writer.hpp"
#include "util/crc32c.hpp"

namespace nonrep::journal {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / ("nonrep_journal_" + name)).string();
  fs::remove_all(dir);
  return dir;
}

Bytes payload(int i, std::size_t size = 24) {
  Bytes p(size, static_cast<std::uint8_t>(i));
  p[0] = static_cast<std::uint8_t>(i >> 8);
  return p;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// ---- CRC32C ----

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector.
  EXPECT_EQ(crc32c(to_bytes("123456789")), 0xe3069283u);
  EXPECT_EQ(crc32c(BytesView{}), 0u);
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);  // 32 zero bytes, RFC 3720
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("a longer buffer that crosses the 4-byte slicing stride");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t a = crc32c_extend(
        crc32c(BytesView(data.data(), split)),
        BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(a, crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32c, HardwareMatchesSoftware) {
  // Differential test for the SSE4.2 path: the dispatching crc32c_extend and
  // the table-driven crc32c_extend_sw must agree on every length (covering
  // the unaligned head, the 8-byte stride and the tail) and on every split.
  // On a machine without SSE4.2 both sides take the software path and the
  // test degenerates to a self-check.
  std::uint32_t seed = 0x9e3779b9u;
  Bytes data(1037, 0);
  for (auto& b : data) {
    seed = seed * 1664525u + 1013904223u;  // LCG: deterministic "random" bytes
    b = static_cast<std::uint8_t>(seed >> 24);
  }
  for (std::size_t len = 0; len <= data.size(); len = len < 64 ? len + 1 : len * 2 + 3) {
    const BytesView view(data.data(), len);
    EXPECT_EQ(crc32c_extend(0, view), crc32c_extend_sw(0, view)) << "len " << len;
    EXPECT_EQ(crc32c_extend(0xdeadbeefu, view), crc32c_extend_sw(0xdeadbeefu, view))
        << "len " << len;
  }
  // Incremental hardware extends match one-shot software.
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 63u, 512u, 1036u, 1037u}) {
    const std::uint32_t inc =
        crc32c_extend(crc32c_extend(0, BytesView(data.data(), split)),
                      BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(inc, crc32c_extend_sw(0, data)) << "split " << split;
  }
  // The known vectors must hold whichever path the dispatcher picked.
  EXPECT_EQ(crc32c(to_bytes("123456789")), 0xe3069283u);
  (void)crc32c_hw_available();  // exercised for coverage; value is machine-dependent
}

// ---- format ----

TEST(JournalFormat, SegmentNameRoundTrip) {
  EXPECT_EQ(segment_filename(0), "seg-00000000000000000000.wal");
  EXPECT_EQ(segment_filename(147), "seg-00000000000000000147.wal");
  EXPECT_EQ(parse_segment_filename(segment_filename(98765)).value(), 98765u);
  EXPECT_FALSE(parse_segment_filename("seg-abc.wal").ok());
  EXPECT_FALSE(parse_segment_filename("other.txt").ok());
}

TEST(JournalFormat, HeaderRoundTripAndCorruption) {
  Bytes header = encode_segment_header(42);
  ASSERT_EQ(header.size(), kSegmentHeaderBytes);
  EXPECT_EQ(decode_segment_header(header).value(), 42u);
  header[9] ^= 1;  // first_seq byte
  EXPECT_FALSE(decode_segment_header(header).ok());
}

TEST(JournalFormat, CheckpointRoundTrip) {
  Checkpoint cp;
  cp.record_count = 7;
  cp.first_sequence = 10;
  cp.last_sequence = 16;
  cp.merkle_root[3] = 0xab;
  auto decoded = Checkpoint::decode(cp.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->record_count, 7u);
  EXPECT_EQ(decoded->first_sequence, 10u);
  EXPECT_EQ(decoded->last_sequence, 16u);
  EXPECT_EQ(decoded->merkle_root, cp.merkle_root);
  EXPECT_FALSE(Checkpoint::decode(to_bytes("junk")).ok());
}

TEST(MerkleRoot, MatchesManualTree) {
  auto leaf = [](int i) {
    crypto::Digest d{};
    d[0] = static_cast<std::uint8_t>(i);
    return d;
  };
  auto pair_hash = [](const crypto::Digest& l, const crypto::Digest& r) {
    crypto::Sha256 h;
    h.update(BytesView(l.data(), l.size()));
    h.update(BytesView(r.data(), r.size()));
    return h.finish();
  };
  EXPECT_EQ(crypto::merkle_root({}), crypto::Digest{});
  EXPECT_EQ(crypto::merkle_root({leaf(1)}), leaf(1));
  EXPECT_EQ(crypto::merkle_root({leaf(1), leaf(2)}), pair_hash(leaf(1), leaf(2)));
  // Odd leaf promotes unchanged.
  EXPECT_EQ(crypto::merkle_root({leaf(1), leaf(2), leaf(3)}),
            pair_hash(pair_hash(leaf(1), leaf(2)), leaf(3)));
}

// ---- writer / reader round trips ----

TEST(Journal, EmptyDirectoryRecoversEmpty) {
  const std::string dir = temp_dir("empty");
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->records.empty());
  EXPECT_EQ(report->next_sequence, 0u);
  EXPECT_TRUE(report->clean);
}

TEST(Journal, WriteCloseRecoverRoundTrip) {
  const std::string dir = temp_dir("roundtrip");
  {
    auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
    ASSERT_TRUE(w.ok()) << w.error().detail;
    for (int i = 0; i < 20; ++i) {
      auto seq = w.value()->append(payload(i));
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(seq.value(), static_cast<std::uint64_t>(i));
    }
    // Empty payloads are legal records.
    ASSERT_TRUE(w.value()->append(BytesView{}).ok());
    ASSERT_TRUE(w.value()->close().ok());
  }
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 21u);
  for (std::size_t i = 0; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].sequence, i);
  }
  EXPECT_EQ(report->records[3].payload, payload(3));
  EXPECT_TRUE(report->records[20].payload.empty());
  EXPECT_TRUE(report->clean);
  ASSERT_EQ(report->segments.size(), 1u);
  EXPECT_TRUE(report->segments[0].sealed);

  auto audit = Reader::audit(dir);
  EXPECT_TRUE(audit.ok) << (audit.problems.empty() ? "" : audit.problems[0]);
  EXPECT_EQ(audit.total_records, 21u);
  EXPECT_TRUE(audit.segments[0].checkpoint_ok);
}

TEST(Journal, RotationSealsEverySegment) {
  const std::string dir = temp_dir("rotation");
  {
    auto w = Writer::open({.dir = dir,
                           .segment_max_bytes = 512,
                           .sync = SyncPolicy::kEveryBatch,
                           .batch_records = 4});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 60; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    EXPECT_GE(w.value()->stats().rotations, 2u);
    ASSERT_TRUE(w.value()->close().ok());
  }
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 60u);
  EXPECT_GE(report->segments.size(), 3u);
  for (const auto& seg : report->segments) {
    EXPECT_TRUE(seg.sealed) << seg.path;
  }
  // Segment boundaries carry the running sequence.
  EXPECT_EQ(report->segments[0].first_sequence, 0u);
  EXPECT_GT(report->segments[1].first_sequence, 0u);
  EXPECT_TRUE(Reader::audit(dir).ok);
}

TEST(Journal, ReopenResumesSequenceNumbering) {
  const std::string dir = temp_dir("reopen");
  for (int round = 0; round < 3; ++round) {
    auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value()->next_sequence(), static_cast<std::uint64_t>(round * 5));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.value()->append(payload(round * 5 + i)).ok());
    ASSERT_TRUE(w.value()->close().ok());
  }
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(report->records[i].sequence, i);
  // Each clean close seals a segment; all must audit.
  EXPECT_EQ(report->segments.size(), 3u);
  EXPECT_TRUE(Reader::audit(dir).ok);
}

// ---- crash recovery ----

TEST(Journal, TornTailTruncatedAndWriterResumes) {
  const std::string dir = temp_dir("torn");
  {
    auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    w.value()->simulate_crash();  // no seal, no final sync
  }
  // The crash happened mid-append of record 10: half a frame hits the disk.
  auto segs = Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 1u);
  const Bytes torn_frame = encode_frame(RecordType::kData, 10, payload(10));
  {
    std::ofstream out(segs.value()[0], std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn_frame.data()),
              static_cast<std::streamsize>(torn_frame.size() / 2));
  }

  auto scan_only = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(scan_only.ok());
  EXPECT_EQ(scan_only->records.size(), 10u);
  EXPECT_FALSE(scan_only->clean);

  // Repair + resume: the torn half-frame is truncated, appends continue.
  auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
  ASSERT_TRUE(w.ok()) << w.error().detail;
  EXPECT_EQ(w.value()->next_sequence(), 10u);
  ASSERT_TRUE(w.value()->append(payload(10)).ok());
  ASSERT_TRUE(w.value()->close().ok());

  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 11u);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(report->records[i].sequence, i);
  EXPECT_TRUE(report->clean);
  EXPECT_TRUE(Reader::audit(dir).ok);
}

TEST(Journal, EveryRecordPolicySurvivesCrash) {
  const std::string dir = temp_dir("crash_every");
  auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  w.value()->simulate_crash();
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 7u);  // every record was durable
}

TEST(Journal, BatchPolicyCrashLosesOnlyUnflushedTail) {
  const std::string dir = temp_dir("crash_batch");
  auto w = Writer::open({.dir = dir,
                         .sync = SyncPolicy::kEveryBatch,
                         .batch_records = 4});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  w.value()->simulate_crash();  // records 8..9 were still buffered
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 8u);
  EXPECT_EQ(report->next_sequence, 8u);  // numbering resumes where durability ended
}

TEST(Journal, TimedPolicyWritesThroughToTheOs) {
  // kTimed defers only the device barrier: every append reaches the OS, so
  // a process crash (as opposed to power loss) loses nothing even when the
  // sync interval never elapsed.
  const std::string dir = temp_dir("timed");
  auto w = Writer::open({.dir = dir,
                         .sync = SyncPolicy::kTimed,
                         .sync_interval_ms = 3600 * 1000});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  EXPECT_EQ(w.value()->stats().syncs, 0u);  // interval never elapsed
  w.value()->simulate_crash();
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 6u);
}

TEST(Journal, MidJournalDamageIsNotRepairedAway) {
  const std::string dir = temp_dir("mid_damage");
  {
    auto w = Writer::open({.dir = dir,
                           .segment_max_bytes = 512,
                           .sync = SyncPolicy::kEveryBatch,
                           .batch_records = 4});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 60; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    ASSERT_TRUE(w.value()->close().ok());
  }
  auto segs = Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  ASSERT_GE(segs.value().size(), 3u);

  // Flip one payload byte in the middle segment.
  Bytes bytes = read_file(segs.value()[1]);
  bytes[kSegmentHeaderBytes + kFrameHeaderBytes + kRecordPrefixBytes + 2] ^= 0x40;
  write_file(segs.value()[1], bytes);

  auto report = Reader::recover(dir, RecoverMode::kRepair);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean);
  EXPECT_FALSE(report->resumable);
  // Only the first segment's records survive; nothing from the damaged
  // segment onward is trusted.
  const std::uint64_t first_seg_records = report->segments[0].data_records;
  EXPECT_EQ(report->records.size(), first_seg_records);

  // A writer must refuse to append after unrepaired damage.
  auto w = Writer::open({.dir = dir});
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code, "journal.unrecoverable");

  auto audit = Reader::audit(dir);
  EXPECT_FALSE(audit.ok);
  EXPECT_FALSE(audit.problems.empty());
}

TEST(Journal, VanishedMiddleSegmentIsAGap) {
  const std::string dir = temp_dir("vanished");
  for (int round = 0; round < 3; ++round) {
    auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(w.value()->append(payload(round * 4 + i)).ok());
    ASSERT_TRUE(w.value()->close().ok());  // one sealed segment per round
  }
  auto segs = Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 3u);
  fs::remove(segs.value()[1]);

  // Records after the vanished segment must NOT be spliced onto the prefix,
  // even though the surviving segments are individually pristine.
  auto report = Reader::recover(dir, RecoverMode::kRepair);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 4u);
  EXPECT_EQ(report->next_sequence, 4u);
  EXPECT_FALSE(report->clean);
  EXPECT_FALSE(report->resumable);
  auto w = Writer::open({.dir = dir});
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.error().code, "journal.unrecoverable");
  EXPECT_FALSE(Reader::audit(dir).ok);
}

TEST(Journal, OversizedPayloadRejectedBeforeWrite) {
  const std::string dir = temp_dir("oversized");
  auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryBatch});
  ASSERT_TRUE(w.ok());
  const Bytes too_big(static_cast<std::size_t>(kMaxBodyBytes) - kRecordPrefixBytes + 1, 0);
  auto r = w.value()->append(too_big);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "journal.payload_too_large");
  // The writer is still healthy and the sequence was not consumed.
  auto ok = w.value()->append(payload(0));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 0u);
  ASSERT_TRUE(w.value()->close().ok());
  EXPECT_TRUE(Reader::audit(dir).ok);
}

TEST(Journal, CheckpointMismatchDetected) {
  const std::string dir = temp_dir("bad_checkpoint");
  fs::create_directories(dir);
  // Hand-craft a sealed segment whose checkpoint commits to a wrong root:
  // every frame CRC is valid, so only the Merkle check can catch it.
  Bytes file = encode_segment_header(0);
  const Bytes body_payload = payload(1);
  append(file, encode_frame(RecordType::kData, 0, body_payload));
  Checkpoint cp;
  cp.record_count = 1;
  cp.first_sequence = 0;
  cp.last_sequence = 0;
  cp.merkle_root[0] = 0x5a;  // bogus
  append(file, encode_frame(RecordType::kCheckpoint, 0, cp.encode()));
  write_file((fs::path(dir) / segment_filename(0)).string(), file);

  auto scan = Segment::scan((fs::path(dir) / segment_filename(0)).string());
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(scan->defect.has_value());
  EXPECT_EQ(scan->defect->code, "journal.checkpoint_mismatch");
  EXPECT_FALSE(scan->sealed);
  // The data before the bogus seal is still readable.
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].record.payload, body_payload);

  EXPECT_FALSE(Reader::audit(dir).ok);
}

TEST(Journal, SequenceGapInsideSegmentDetected) {
  const std::string dir = temp_dir("seq_gap");
  fs::create_directories(dir);
  Bytes file = encode_segment_header(0);
  append(file, encode_frame(RecordType::kData, 0, payload(0)));
  append(file, encode_frame(RecordType::kData, 2, payload(2)));  // 1 missing
  write_file((fs::path(dir) / segment_filename(0)).string(), file);

  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 1u);
  EXPECT_FALSE(report->clean);
  ASSERT_TRUE(report->segments[0].defect.has_value());
  EXPECT_EQ(report->segments[0].defect->code, "journal.sequence_gap");
}

// ---- group commit ----

TEST(Journal, BatchPolicyCoalescesSyncs) {
  const std::string dir = temp_dir("coalesce");
  auto w = Writer::open({.dir = dir,
                         .sync = SyncPolicy::kEveryBatch,
                         .batch_records = 8});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  ASSERT_TRUE(w.value()->close().ok());
  const auto stats = w.value()->stats();
  EXPECT_EQ(stats.appends, 64u);
  // At most one device barrier per batch trigger (+1 for the close seal);
  // the pipelined sync stage may coalesce triggers that queue up while a
  // barrier is in flight, so fewer is fine — zero is not.
  EXPECT_GE(stats.syncs, 1u);
  EXPECT_LE(stats.syncs, 9u);
  EXPECT_EQ(stats.syncs + stats.coalesced_barriers, 9u);
}

TEST(Journal, ConcurrentAppendersAllDurableAndOrdered) {
  const std::string dir = temp_dir("concurrent");
  auto opened = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
  ASSERT_TRUE(opened.ok());
  Writer& w = *opened.value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!w.append(payload(t * kPerThread + i)).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = w.stats();
  EXPECT_EQ(stats.appends, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Group commit: concurrent appenders share barriers, so there must be no
  // more syncs than appends (and usually far fewer under contention).
  EXPECT_LE(stats.syncs, stats.appends);
  ASSERT_TRUE(w.close().ok());

  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (std::size_t i = 0; i < report->records.size(); ++i) {
    EXPECT_EQ(report->records[i].sequence, i);
  }
  EXPECT_TRUE(Reader::audit(dir).ok);
}

TEST(Journal, SyncMakesBatchedRecordsDurable) {
  const std::string dir = temp_dir("explicit_sync");
  auto w = Writer::open({.dir = dir,
                         .sync = SyncPolicy::kEveryBatch,
                         .batch_records = 1000});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  ASSERT_TRUE(w.value()->sync().ok());
  w.value()->simulate_crash();
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 5u);
}

// ---- pipelined commit / durability tickets ----

TEST(Journal, AsyncAppendTicketsSettle) {
  const std::string dir = temp_dir("tickets");
  auto w = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.value()->durable_future(0).ready());  // vacuously durable
  std::vector<AppendTicket> tickets;
  for (int i = 0; i < 12; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value().sequence, static_cast<std::uint64_t>(i));
    EXPECT_EQ(t.value().lsn, static_cast<std::uint64_t>(i) + 1);
    EXPECT_TRUE(t.value().policy_blocks);  // kEveryRecord classic contract
    tickets.push_back(std::move(t).take());
  }
  for (auto& t : tickets) EXPECT_TRUE(t.durable.wait().ok());
  // The barrier watermark is in: wait_durable returns without a new sync.
  EXPECT_TRUE(w.value()->wait_durable(tickets.back().lsn).ok());
  ASSERT_TRUE(w.value()->close().ok());
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 12u);
  EXPECT_TRUE(Reader::audit(dir).ok);
}

TEST(Journal, CrashSettlesTicketsByDurability) {
  const std::string dir = temp_dir("crash_tickets");
  auto w = Writer::open({.dir = dir,
                         .sync = SyncPolicy::kEveryBatch,
                         .batch_records = 1000});
  ASSERT_TRUE(w.ok());
  std::vector<AppendTicket> durable, lost;
  for (int i = 0; i < 5; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    EXPECT_FALSE(t.value().policy_blocks);
    durable.push_back(std::move(t).take());
  }
  ASSERT_TRUE(w.value()->sync().ok());
  for (int i = 5; i < 9; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    lost.push_back(std::move(t).take());
  }
  w.value()->simulate_crash();
  // Tickets stay valid across the crash: the durable prefix reports ok, the
  // records whose barrier never ran report the crash.
  for (auto& t : durable) EXPECT_TRUE(t.durable.wait().ok());
  for (auto& t : lost) {
    auto s = t.durable.wait();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().code, "journal.crashed");
  }
  EXPECT_FALSE(w.value()->health().ok());
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 5u);  // exactly the durable prefix
}

TEST(Journal, PipelineKeepsMultipleBatchesInFlight) {
  // Appenders stage batch after batch without waiting while an earlier
  // barrier is still executing — the depth the pipeline exists to provide.
  // A tight burst would fold into one queued barrier before the lazily
  // started worker takes any, so the batch triggers are paced to land while
  // a barrier is in flight; retry a few fresh writers in case the scheduler
  // or the device disagrees.
  std::uint64_t peak = 0;
  for (int attempt = 0; attempt < 20 && peak < 2; ++attempt) {
    const std::string dir = temp_dir("pipeline_depth");
    Options o;
    o.dir = dir;
    o.sync = SyncPolicy::kEveryBatch;
    o.batch_records = 2;
    o.max_batches_in_flight = 8;
    auto w = Writer::open(o);
    ASSERT_TRUE(w.ok());
    std::vector<AppendTicket> tickets;
    for (int i = 0; i < 16; ++i) {  // 8 batch triggers, none blocking
      auto t = w.value()->append_async(payload(i));
      ASSERT_TRUE(t.ok());
      tickets.push_back(std::move(t).take());
      if (i % 2 == 1) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (auto& t : tickets) EXPECT_TRUE(t.durable.wait().ok());
    ASSERT_TRUE(w.value()->close().ok());
    peak = w.value()->stats().batches_in_flight_peak;
    auto report = Reader::recover(dir, RecoverMode::kScanOnly);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->records.size(), 16u);
  }
  EXPECT_GE(peak, 2u);
}

TEST(SyncStage, RequestsWhileWorkerBusyFoldIntoOneBarrier) {
  // Hold the shared watermark's mutex from a helper thread: the worker
  // fdatasyncs the first job, then blocks publishing it. Every request made
  // meanwhile targets the same fd, so it widens the one queued job instead
  // of queueing another — no backpressure, even at depth 2.
  const std::string dir = temp_dir("stage_fold");
  fs::create_directories(dir);
  const int fd = ::open((fs::path(dir) / "data").c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "x", 1), 1);
  auto state = std::make_shared<DurabilityState>();
  SyncStage stage(state, SyncStage::Options{.max_batches_in_flight = 2});

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    util::MutexLock lk(state->mu);
    held = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!held) std::this_thread::yield();

  stage.request(fd, 1, 1);
  for (int i = 0; i < 5000 && stage.stats().barriers == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(stage.stats().barriers, 1u);  // executing, stuck before retire
  for (std::uint64_t lsn = 2; lsn <= 6; ++lsn) stage.request(fd, lsn, lsn);
  release = true;
  holder.join();

  ASSERT_TRUE(stage.drain().ok());
  const auto stats = stage.stats();
  EXPECT_EQ(stats.barriers, 2u);
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.backpressure_waits, 0u);
  EXPECT_EQ(stats.in_flight_peak, 2u);
  EXPECT_TRUE(DurableFuture(state, 6).ready());
  ASSERT_TRUE(stage.shutdown().ok());
  ::close(fd);
}

TEST(Journal, RotationServedByPreallocatedSpare) {
  const std::string dir = temp_dir("spare");
  {
    auto w = Writer::open({.dir = dir,
                           .segment_max_bytes = 512,
                           .sync = SyncPolicy::kEveryRecord});
    ASSERT_TRUE(w.ok());
    // Every append waits for its barrier, so the sync-stage worker has idle
    // moments to fallocate the next spare between rotations.
    for (int i = 0; i < 80; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    const auto stats = w.value()->stats();
    EXPECT_GE(stats.rotations, 2u);
    EXPECT_GE(stats.spare_swaps, 1u);
    ASSERT_TRUE(w.value()->close().ok());
  }
  // The hidden spare file is invisible to recovery and audit.
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 80u);
  EXPECT_TRUE(report->clean);
  for (const auto& seg : report->segments) EXPECT_TRUE(seg.sealed) << seg.path;
  EXPECT_TRUE(Reader::audit(dir).ok);
  // Reopen resumes cleanly whether or not a stale spare was left behind.
  auto w2 = Writer::open({.dir = dir, .sync = SyncPolicy::kEveryRecord});
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2.value()->next_sequence(), 80u);
  ASSERT_TRUE(w2.value()->append(payload(80)).ok());
  ASSERT_TRUE(w2.value()->close().ok());
}

TEST(Journal, ClosedWriterRejectsAppends) {
  const std::string dir = temp_dir("closed");
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->append(payload(0)).ok());
  ASSERT_TRUE(w.value()->close().ok());
  auto r = w.value()->append(payload(1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "journal.closed");
}

}  // namespace
}  // namespace nonrep::journal
