// Durable evidence journal: framing, group commit, rotation, crash recovery
// and the structural audit (a clean scan-only recovery).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "journal/format.hpp"
#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/sync_stage.hpp"
#include "journal/writer.hpp"
#include "obs/metrics.hpp"
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

/// The structural audit: a scan-only recovery that finds no defect.
bool scans_clean(const std::string& dir) {
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  return report.ok() && report->clean;
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
    auto w = Writer::open({.dir = dir});
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
  EXPECT_FALSE(report->segments[0].defect.has_value());
  EXPECT_EQ(report->segments[0].data_records, 21u);
}

TEST(Journal, RotationLeavesEverySegmentClean) {
  const std::string dir = temp_dir("rotation");
  {
    auto w = Writer::open({.dir = dir, .segment_max_bytes = 512});
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
    EXPECT_FALSE(seg.defect.has_value()) << seg.path;
  }
  // Segment boundaries carry the running sequence.
  EXPECT_EQ(report->segments[0].first_sequence, 0u);
  EXPECT_GT(report->segments[1].first_sequence, 0u);
  EXPECT_TRUE(scans_clean(dir));
}

TEST(Journal, ReopenResumesSequenceNumbering) {
  const std::string dir = temp_dir("reopen");
  for (int round = 0; round < 3; ++round) {
    auto w = Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value()->next_sequence(), static_cast<std::uint64_t>(round * 5));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.value()->append(payload(round * 5 + i)).ok());
    ASSERT_TRUE(w.value()->close().ok());
  }
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 15u);
  for (std::size_t i = 0; i < 15; ++i) EXPECT_EQ(report->records[i].sequence, i);
  // Each reopen continues the tail segment in place.
  EXPECT_EQ(report->segments.size(), 1u);
  EXPECT_TRUE(scans_clean(dir));
}

// ---- crash recovery ----

TEST(Journal, TornTailTruncatedAndWriterResumes) {
  const std::string dir = temp_dir("torn");
  {
    auto w = Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    w.value()->simulate_crash();  // no final sync
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
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok()) << w.error().detail;
  EXPECT_EQ(w.value()->next_sequence(), 10u);
  ASSERT_TRUE(w.value()->append(payload(10)).ok());
  ASSERT_TRUE(w.value()->close().ok());

  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 11u);
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(report->records[i].sequence, i);
  EXPECT_TRUE(report->clean);
  EXPECT_TRUE(scans_clean(dir));
}

TEST(Journal, AppendedRecordsSurviveCrash) {
  const std::string dir = temp_dir("crash_every");
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  w.value()->simulate_crash();
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 7u);  // every record was durable
}

TEST(Journal, MidJournalDamageIsNotRepairedAway) {
  const std::string dir = temp_dir("mid_damage");
  {
    auto w = Writer::open({.dir = dir, .segment_max_bytes = 512});
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

  auto audit = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->clean);
  ASSERT_GE(audit->segments.size(), 2u);
  EXPECT_TRUE(audit->segments[1].defect.has_value());
}

TEST(Journal, VanishedMiddleSegmentIsAGap) {
  const std::string dir = temp_dir("vanished");
  {
    // A segment rotates on its 4th record (28-byte header + 4 frames of 41
    // bytes reaches 160), so 11 records fill segments of 4, 4 and 3.
    auto w = Writer::open({.dir = dir, .segment_max_bytes = 160});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 11; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    ASSERT_TRUE(w.value()->close().ok());
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
  EXPECT_FALSE(scans_clean(dir));
}

TEST(Journal, OversizedPayloadRejectedBeforeWrite) {
  const std::string dir = temp_dir("oversized");
  auto w = Writer::open({.dir = dir});
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
  EXPECT_TRUE(scans_clean(dir));
}

TEST(Journal, UnknownRecordTypeIsDamage) {
  const std::string dir = temp_dir("bad_type");
  fs::create_directories(dir);
  // A CRC-valid frame of any type but data is damage: the scan keeps the
  // records before it.
  Bytes file = encode_segment_header(0);
  append(file, encode_frame(RecordType::kData, 0, payload(0)));
  append(file, encode_frame(static_cast<RecordType>(2), 0, payload(1)));
  write_file((fs::path(dir) / segment_filename(0)).string(), file);

  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 1u);
  EXPECT_FALSE(report->clean);
  ASSERT_TRUE(report->segments[0].defect.has_value());
  EXPECT_EQ(report->segments[0].defect->code, "journal.bad_type");
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

TEST(Journal, MisplacedTailFrameIsNotRepairedAway) {
  // A CRC-valid frame in the wrong place at the tail is no crash's doing:
  // repair must not truncate the durable records behind it.
  struct Mutant {
    const char* name;
    std::vector<std::pair<RecordType, int>> frames;
    const char* defect;
  };
  const RecordType data = RecordType::kData;
  const std::vector<Mutant> mutants = {
      {"two frames swapped",
       {{data, 0}, {data, 1}, {data, 2}, {data, 4}, {data, 3},
        {data, 5}, {data, 6}, {data, 7}, {data, 8}, {data, 9}},
       "journal.sequence_gap"},
      {"a frame of unknown type",
       {{data, 0}, {data, 1}, {data, 2}, {static_cast<RecordType>(2), 3}, {data, 4}},
       "journal.bad_type"},
  };
  for (const auto& mutant : mutants) {
    SCOPED_TRACE(mutant.name);
    const std::string dir = temp_dir("misplaced_tail");
    fs::create_directories(dir);
    Bytes file = encode_segment_header(0);
    for (const auto& [type, i] : mutant.frames) {
      append(file, encode_frame(type, static_cast<std::uint64_t>(i), payload(i)));
    }
    const std::string path = (fs::path(dir) / segment_filename(0)).string();
    write_file(path, file);

    auto w = Writer::open({.dir = dir});
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().code, "journal.unrecoverable");
    auto report = Reader::recover(dir, RecoverMode::kRepair);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->resumable);
    EXPECT_EQ(report->truncated_bytes, 0u);
    EXPECT_EQ(report->records.size(), 3u);
    ASSERT_TRUE(report->segments[0].defect.has_value());
    EXPECT_EQ(report->segments[0].defect->code, mutant.defect);
    EXPECT_EQ(read_file(path), file);  // repair touched no byte
  }
}

// ---- group commit ----

TEST(Journal, ConcurrentAppendersAllDurableAndOrdered) {
  const std::string dir = temp_dir("concurrent");
  auto opened = Writer::open({.dir = dir});
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
  EXPECT_TRUE(scans_clean(dir));
}

// ---- pipelined commit / durability tickets ----

TEST(Journal, AsyncAppendTicketsSettle) {
  const std::string dir = temp_dir("tickets");
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.value()->durable_future(0).ready());  // vacuously durable
  std::vector<AppendTicket> tickets;
  for (int i = 0; i < 12; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value().sequence, static_cast<std::uint64_t>(i));
    EXPECT_EQ(t.value().lsn, static_cast<std::uint64_t>(i) + 1);
    tickets.push_back(std::move(t).take());
  }
  for (auto& t : tickets) EXPECT_TRUE(t.durable.wait().ok());
  // The barrier watermark is in: wait_durable returns without a new sync.
  EXPECT_TRUE(w.value()->wait_durable(tickets.back().lsn).ok());
  ASSERT_TRUE(w.value()->close().ok());
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 12u);
  EXPECT_TRUE(scans_clean(dir));
}

TEST(Journal, CrashSettlesTicketsByDurability) {
  const std::string dir = temp_dir("crash_tickets");
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok());
  std::vector<AppendTicket> durable, racing;
  for (int i = 0; i < 5; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    durable.push_back(std::move(t).take());
  }
  ASSERT_TRUE(w.value()->sync().ok());
  // A burst whose barriers are requested but never awaited: the crash
  // lands while some of them may still be queued or running.
  for (int i = 5; i < 40; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    racing.push_back(std::move(t).take());
  }
  w.value()->simulate_crash();
  // Tickets stay valid across the crash: the synced prefix reports ok; a
  // racing ticket reports ok only if its barrier retired before the crash,
  // otherwise journal.crashed — and the ok ones form a prefix. Which racing
  // tickets land on which side depends on timing here;
  // SyncStage.CrashFailsTicketsOfTheQueuedBarrier pins the crashed side.
  for (auto& t : durable) EXPECT_TRUE(t.durable.wait().ok());
  bool crashed_seen = false;
  for (auto& t : racing) {
    auto s = t.durable.wait();
    if (s.ok()) {
      EXPECT_FALSE(crashed_seen) << "durable ticket after a crashed one, lsn " << t.lsn;
    } else {
      crashed_seen = true;
      EXPECT_EQ(s.error().code, "journal.crashed");
    }
  }
  EXPECT_FALSE(w.value()->health().ok());
  // Every record reached the OS before the process died, so a scan keeps
  // all of them; only power loss could cut back to the durable prefix.
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 40u);
}

TEST(Journal, AppendsRequestNoBarrierUntilAWait) {
  // An append only writes. The first wait asks for one barrier covering
  // everything written so far, so waiting on the oldest ticket settles all.
  const std::string dir = temp_dir("lazy_barrier");
  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok());
  obs::Counter& syncs = obs::Registry::global().counter("journal.syncs");
  const std::uint64_t syncs_before = syncs.value();
  std::vector<AppendTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    auto t = w.value()->append_async(payload(i));
    ASSERT_TRUE(t.ok());
    tickets.push_back(std::move(t).take());
  }
  // Give a barrier that had been requested time to retire.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(syncs.value(), syncs_before);
  EXPECT_EQ(w.value()->stats().syncs, 0u);
  for (const auto& t : tickets) EXPECT_FALSE(t.durable.ready());

  ASSERT_TRUE(tickets.front().durable.wait().ok());
  for (const auto& t : tickets) EXPECT_TRUE(t.durable.ready()) << "lsn " << t.lsn;
  EXPECT_EQ(w.value()->stats().syncs, 1u);
  EXPECT_EQ(syncs.value(), syncs_before + 1);
  // Covered tickets ask for nothing more.
  ASSERT_TRUE(tickets.back().durable.wait().ok());
  ASSERT_TRUE(w.value()->sync().ok());
  EXPECT_EQ(w.value()->stats().syncs, 1u);
  ASSERT_TRUE(w.value()->close().ok());
}

// ---- zero padding ----

TEST(Journal, CrashLeavesZeroPaddingThatRecoversClean) {
  const std::string dir = temp_dir("padding_crash");
  {
    auto w = Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    w.value()->simulate_crash();
  }
  auto segs = Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.value().size(), 1u);
  const std::string path = segs.value()[0];
  const std::uint64_t frame_bytes = encode_frame(RecordType::kData, 0, payload(0)).size();
  const std::uint64_t frames_end = kSegmentHeaderBytes + 10 * frame_bytes;
  const Bytes crashed = read_file(path);
  ASSERT_GT(crashed.size(), frames_end);
  for (std::size_t i = frames_end; i < crashed.size(); ++i) ASSERT_EQ(crashed[i], 0) << i;

  // The padding is the segment's clean end: the audit passes, repair
  // touches no byte, and the writer resumes at the last frame.
  auto audit = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
  EXPECT_EQ(audit->records.size(), 10u);
  EXPECT_EQ(audit->segments[0].valid_bytes, frames_end);
  EXPECT_EQ(audit->segments[0].padding_bytes, crashed.size() - frames_end);
  {
    auto w = Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok()) << w.error().detail;
    EXPECT_EQ(read_file(path), crashed);
    EXPECT_EQ(w.value()->next_sequence(), 10u);
    ASSERT_TRUE(w.value()->append(payload(10)).ok());
    // The new frame went into the padding, right after the last one.
    EXPECT_EQ(fs::file_size(path), crashed.size());
    auto live = Reader::recover(dir, RecoverMode::kScanOnly);
    ASSERT_TRUE(live.ok());
    EXPECT_TRUE(live->clean);
    ASSERT_EQ(live->records.size(), 11u);
    EXPECT_EQ(live->records[10].payload, payload(10));
    ASSERT_TRUE(w.value()->close().ok());
  }
  EXPECT_TRUE(scans_clean(dir));
}

TEST(Journal, NonZeroByteInPaddingIsRepairedAway) {
  const std::string dir = temp_dir("padding_dirty");
  {
    auto w = Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
    w.value()->simulate_crash();
  }
  auto segs = Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  const std::string path = segs.value()[0];
  auto before = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->clean);
  const std::uint64_t frames_end = before->segments[0].valid_bytes;

  // A later page reached the disk before the zeros in front of it were
  // overwritten: a crash's doing, so repair cuts it off.
  Bytes bytes = read_file(path);
  ASSERT_GT(bytes.size(), frames_end + 200);
  bytes[frames_end + 100] = 0x5a;
  write_file(path, bytes);

  auto audit = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->clean);
  EXPECT_EQ(audit->records.size(), 10u);
  ASSERT_TRUE(audit->segments[0].defect.has_value());
  EXPECT_EQ(audit->segments[0].defect->code, "journal.dirty_padding");

  auto repaired = Reader::recover(dir, RecoverMode::kRepair);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(repaired->resumable);
  // The torn bytes run to the stray byte; the zeros after it are padding.
  EXPECT_EQ(repaired->truncated_bytes, 101u);
  EXPECT_EQ(fs::file_size(path), frames_end);

  auto w = Writer::open({.dir = dir});
  ASSERT_TRUE(w.ok()) << w.error().detail;
  EXPECT_EQ(w.value()->next_sequence(), 10u);
  ASSERT_TRUE(w.value()->append(payload(10)).ok());
  ASSERT_TRUE(w.value()->close().ok());
  auto report = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean);
  EXPECT_EQ(report->records.size(), 11u);
}

TEST(Journal, RotatedAndClosedSegmentsEndAtTheirLastFrame) {
  // The padding serves only the active segment: rotation and close cut a
  // segment back to its last frame. A live journal audits clean.
  const std::string dir = temp_dir("padding_cut");
  auto w = Writer::open({.dir = dir, .segment_max_bytes = 512});
  ASSERT_TRUE(w.ok());
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(w.value()->append(payload(i)).ok());
  ASSERT_GE(w.value()->stats().rotations, 2u);

  auto live = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(live.ok());
  EXPECT_TRUE(live->clean);
  EXPECT_EQ(live->records.size(), 40u);
  for (std::size_t i = 0; i + 1 < live->segments.size(); ++i) {
    EXPECT_EQ(live->segments[i].padding_bytes, 0u) << live->segments[i].path;
    EXPECT_EQ(live->segments[i].file_bytes, live->segments[i].valid_bytes);
  }
  EXPECT_GT(live->segments.back().padding_bytes, 0u);

  ASSERT_TRUE(w.value()->close().ok());
  auto closed = Reader::recover(dir, RecoverMode::kScanOnly);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->clean);
  for (const auto& seg : closed->segments) {
    EXPECT_EQ(seg.padding_bytes, 0u) << seg.path;
    EXPECT_EQ(seg.file_bytes, seg.valid_bytes) << seg.path;
  }
}

TEST(SyncStage, RequestsWhileWorkerBusyFoldIntoOneBarrier) {
  // Hold the shared watermark's mutex from a helper thread: the worker
  // fdatasyncs the first job, then blocks publishing it. Every request made
  // meanwhile targets the same fd, so it widens the one queued job instead
  // of queueing another.
  const std::string dir = temp_dir("stage_fold");
  fs::create_directories(dir);
  const int fd = ::open((fs::path(dir) / "data").c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "x", 1), 1);
  auto state = std::make_shared<DurabilityState>();
  SyncStage stage(state);

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
  EXPECT_TRUE(DurableFuture(state, 6).ready());
  ASSERT_TRUE(stage.shutdown().ok());
  ::close(fd);
}

TEST(SyncStage, CrashFailsTicketsOfTheQueuedBarrier) {
  // The same pinning as above: job 1 has been fdatasynced and is stuck
  // publishing its watermark, job 2 is queued behind it. A crash now must
  // abandon job 2, so its never-synced ticket settles with the crash
  // reason, while job 1's ticket still reports ok once it retires.
  const std::string dir = temp_dir("stage_crash");
  fs::create_directories(dir);
  const int fd = ::open((fs::path(dir) / "data").c_str(), O_CREAT | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "xy", 2), 2);
  auto state = std::make_shared<DurabilityState>();
  SyncStage stage(state);

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
  stage.request(fd, 2, 2);                 // queued behind it

  // crash() drops the queued job and records its reason in one locked
  // step, then blocks failing the shared state until the holder lets go.
  std::thread crasher([&] {
    stage.crash(Error::make("journal.crashed", "crash with a barrier queued"));
  });
  for (int i = 0; i < 5000 && stage.error().ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(stage.error().ok());
  release = true;
  holder.join();
  crasher.join();  // crash() joins the worker, so job 1 has retired

  EXPECT_EQ(stage.stats().barriers, 1u);  // job 2 never reached the device
  EXPECT_TRUE(DurableFuture(state, 1).wait().ok());
  const auto never_synced = DurableFuture(state, 2).wait();
  ASSERT_FALSE(never_synced.ok());
  EXPECT_EQ(never_synced.error().code, "journal.crashed");
  ::close(fd);
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
