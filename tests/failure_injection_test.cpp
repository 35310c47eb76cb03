// Failure injection: crashed parties, expiring locks, flapping links.
// Safety must hold unconditionally; liveness under the bounded-failure
// assumption (trusted-interceptor assumptions 2 and 5, §3.1).
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <fstream>

#include "common.hpp"
#include "core/fair_exchange.hpp"
#include "core/nr_interceptor.hpp"
#include "core/sharing.hpp"
#include "core/ttp.hpp"
#include "journal/reader.hpp"
#include "journal/segment.hpp"
#include "journal/writer.hpp"
#include "store/journal_backend.hpp"
#include "util/serialize.hpp"

namespace nonrep::core {
namespace {

using container::Invocation;

const ObjectId kObj{"obj:fi"};

/// The structural audit: a scan-only recovery that finds no defect.
bool scans_clean(const std::string& dir) {
  auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  return report.ok() && report->clean;
}

struct FailureFixture : ::testing::Test {
  struct Node {
    test::Party* party;
    std::unique_ptr<membership::MembershipService> membership;
    std::shared_ptr<B2BObjectController> controller;
  };

  void build(std::size_t n, SharingConfig config = {}) {
    std::vector<membership::Member> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto& p = world.add_party("p" + std::to_string(i));
      members.push_back({p.id, p.address});
      nodes.push_back({&p, std::make_unique<membership::MembershipService>(), nullptr});
    }
    for (auto& node : nodes) {
      node.membership->create_group(kObj, members);
      node.controller = std::make_shared<B2BObjectController>(*node.party->coordinator,
                                                              *node.membership, config);
      node.party->coordinator->register_handler(node.controller);
      ASSERT_TRUE(node.controller->host(kObj, to_bytes("v1")).ok());
    }
  }

  void crash(std::size_t i) {
    // A crashed node stops answering: unregister its endpoint.
    world.network.unregister_endpoint(nodes[i].party->address);
  }

  test::TestWorld world;
  std::vector<Node> nodes;
};

TEST_F(FailureFixture, CrashedVoterBlocksCommitSafely) {
  build(3, SharingConfig{.vote_timeout = 300});
  crash(2);
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_FALSE(v.ok());  // silence != agreement
  world.network.run();
  // Surviving replicas untouched and consistent.
  EXPECT_EQ(nodes[0].controller->get(kObj).value().version, 1u);
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 1u);
}

TEST_F(FailureFixture, GroupRecoversByDisconnectingCrashedMember) {
  build(3, SharingConfig{.vote_timeout = 300});
  crash(2);
  // The survivors vote the dead member out (§3.3 membership protocols)...
  ASSERT_FALSE(nodes[0].controller->propose_update(kObj, to_bytes("v2")).ok());
  world.network.run();
  ASSERT_TRUE(nodes[0].controller->disconnect(kObj, nodes[2].party->id).ok());
  world.network.run();
  // ...after which updates flow again.
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
  world.network.run();
  EXPECT_EQ(nodes[1].controller->get(kObj).value().state, to_bytes("v2"));
}

TEST_F(FailureFixture, LockLeaseExpiryRestoresLiveness) {
  // A proposer that locked the object and then died must not wedge the
  // group forever: the lock lease expires.
  build(3, SharingConfig{.vote_timeout = 200, .lock_lease = 1000});
  // Node 0 starts a round that will fail (node 2 crashed after receiving
  // the proposal — emulate by partitioning before the vote reply).
  crash(2);
  ASSERT_FALSE(nodes[0].controller->propose_update(kObj, to_bytes("wedged")).ok());
  world.network.run();

  // Node 1 may have taken the lock for that run. Advance past the lease.
  world.clock->advance(2000);
  ASSERT_TRUE(nodes[0].controller->disconnect(kObj, nodes[2].party->id).ok());
  world.network.run();
  auto v = nodes[1].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok()) << v.error().code;
}

TEST_F(FailureFixture, FlappingLinkEventuallyCompletes) {
  build(2, SharingConfig{.vote_timeout = 30000});
  // 50% loss both ways between the two parties.
  world.network.set_link(nodes[0].party->address, nodes[1].party->address,
                         net::LinkConfig{.latency = 5, .drop = 0.5});
  world.network.set_link(nodes[1].party->address, nodes[0].party->address,
                         net::LinkConfig{.latency = 5, .drop = 0.5});
  for (int i = 2; i <= 6; ++i) {
    auto v = nodes[0].controller->propose_update(kObj, to_bytes("v" + std::to_string(i)));
    ASSERT_TRUE(v.ok()) << i << ": " << v.error().code;
    world.network.run();
  }
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 6u);
}

TEST_F(FailureFixture, ServerCrashMidExchangeLeavesClientWithProofOfAttempt) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean, {});
  auto nr = install_nr_server(*server.coordinator, cont);

  world.network.unregister_endpoint("server");  // crash before the request lands
  DirectInvocationClient handler(*client.coordinator,
                                 InvocationConfig{.request_timeout = 300});
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("x");
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  EXPECT_EQ(result.outcome, container::Outcome::kTimeout);
  // Client's own NRO_req is logged: proof it attempted the invocation.
  EXPECT_TRUE(client.log->find(handler.last_run(), "token.NRO-request").has_value());
  EXPECT_TRUE(client.log->verify_chain().ok());
}

TEST_F(FailureFixture, PartitionHealsAndExchangeSucceeds) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean, {});
  auto nr = install_nr_server(*server.coordinator, cont);

  world.network.set_partitioned("client", "server", true);
  DirectInvocationClient handler(*client.coordinator,
                                 InvocationConfig{.request_timeout = 300});
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("x");
  inv.caller = client.id;
  EXPECT_EQ(handler.invoke("server", inv).outcome, container::Outcome::kTimeout);

  world.network.set_partitioned("client", "server", false);
  auto inv2 = inv;
  auto result = handler.invoke("server", inv2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(handler.last_run_evidence().complete_for_client());
}

// ---- journal failure injection ----
//
// The durable evidence journal must honour the same contract as the rest of
// this suite: safety unconditionally — after arbitrary corruption at any
// byte offset, recovery keeps exactly the records before the damage and
// rejects everything after it, never fabricating or reordering evidence.

struct JournalCorruptionFixture : ::testing::Test {
  std::string dir;
  std::string segment;
  Bytes pristine;
  // End offset (exclusive) of every data frame, in file order.
  std::vector<std::uint64_t> data_frame_ends;

  void SetUp() override {
    namespace fs = std::filesystem;
    dir = (fs::temp_directory_path() / "nonrep_fi_journal").string();
    fs::remove_all(dir);
    auto w = journal::Writer::open({.dir = dir});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 24; ++i) {
      // Varied payload sizes so frame boundaries land at irregular offsets.
      Bytes p(static_cast<std::size_t>(5 + (i * 7) % 40), static_cast<std::uint8_t>(i));
      ASSERT_TRUE(w.value()->append(p).ok());
    }
    ASSERT_TRUE(w.value()->close().ok());  // single segment

    auto segs = journal::Segment::list(dir);
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.value().size(), 1u);
    segment = segs.value()[0];
    std::ifstream in(segment, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());

    // Walk the frame layout of the pristine file.
    std::size_t off = journal::kSegmentHeaderBytes;
    while (off + journal::kFrameHeaderBytes <= pristine.size()) {
      const std::uint32_t len = static_cast<std::uint32_t>(pristine[off]) |
                                (static_cast<std::uint32_t>(pristine[off + 1]) << 8) |
                                (static_cast<std::uint32_t>(pristine[off + 2]) << 16) |
                                (static_cast<std::uint32_t>(pristine[off + 3]) << 24);
      const std::uint8_t type = pristine[off + journal::kFrameHeaderBytes];
      off += journal::kFrameHeaderBytes + len;
      if (type == static_cast<std::uint8_t>(journal::RecordType::kData)) {
        data_frame_ends.push_back(off);
      }
    }
    ASSERT_EQ(off, pristine.size());
    ASSERT_EQ(data_frame_ends.size(), 24u);
  }

  void restore_file(const Bytes& bytes) {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// Records that must survive when everything from `offset` on is suspect:
  /// the data frames that end at or before it.
  std::size_t intact_until(std::uint64_t offset) const {
    std::size_t n = 0;
    while (n < data_frame_ends.size() && data_frame_ends[n] <= offset) ++n;
    return n;
  }
};

TEST_F(JournalCorruptionFixture, BitFlipAtEveryOffsetKeepsPrefixOnly) {
  for (std::uint64_t offset = 0; offset < pristine.size(); offset += 13) {
    Bytes mutated = pristine;
    mutated[offset] ^= 0x01;
    restore_file(mutated);

    auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
    ASSERT_TRUE(report.ok()) << "offset " << offset;
    // The frame containing the flipped byte (and everything after) must be
    // rejected; every record before it must survive bit-exact.
    const std::size_t expected = intact_until(offset);
    ASSERT_EQ(report->records.size(), expected) << "offset " << offset;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(report->records[i].sequence, i) << "offset " << offset;
    }
    EXPECT_FALSE(report->clean) << "offset " << offset;
    EXPECT_FALSE(scans_clean(dir)) << "offset " << offset;
  }
  restore_file(pristine);
  EXPECT_TRUE(scans_clean(dir));
}

TEST_F(JournalCorruptionFixture, TruncationAtEveryOffsetKeepsPrefixOnly) {
  for (std::uint64_t cut = 0; cut < pristine.size(); cut += 17) {
    Bytes mutated(pristine.begin(), pristine.begin() + static_cast<std::ptrdiff_t>(cut));
    restore_file(mutated);

    auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
    ASSERT_TRUE(report.ok()) << "cut " << cut;
    const std::size_t expected = intact_until(cut);
    ASSERT_EQ(report->records.size(), expected) << "cut " << cut;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(report->records[i].sequence, i) << "cut " << cut;
    }
  }
  restore_file(pristine);
  EXPECT_TRUE(scans_clean(dir));
}

// ---- tamper mutants over a multi-segment evidence journal ----
//
// Each mutant rewrites the journal the way an attacker with write access
// could: frames are re-encoded, so every CRC is valid. The audit verdict is
// nonrep_audit's: a scan-only recovery that finds no structural defect,
// every record decodes, and the evidence chain verifies. Framing (CRC and
// sequence continuity) judges each frame's place; the chain, and the
// canonical-only record decoder under it, judge its content.

/// One segment file as the mutants see it: its first sequence and frames.
struct SegmentImage {
  std::uint64_t first_sequence = 0;
  std::vector<journal::Record> frames;
};

/// "" when the journal audits as genuine, else the code of the first check
/// that rejects it: structural scan, then record decoding, then the chain.
std::string audit_verdict(const std::string& dir) {
  auto report = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  if (!report.ok()) return report.error().code;
  for (const auto& seg : report->segments) {
    if (seg.defect.has_value()) return seg.defect->code;
  }
  std::vector<store::LogRecord> records;
  for (const auto& frame : report->records) {
    auto decoded = store::decode_log_record(frame.payload);
    if (!decoded.ok()) return decoded.error().code;
    records.push_back(std::move(decoded).take());
  }
  store::EvidenceLog log(std::make_unique<store::MemoryLogBackend>(std::move(records)),
                         std::make_shared<SimClock>(0));
  auto chain = log.verify_chain();
  return chain.ok() ? "" : chain.error().code;
}

/// A record frame's payload with one junk byte spliced in: inside the
/// canonical record (after its payload field) or after the chain digest.
Bytes with_junk_byte(const Bytes& encoded, bool inside) {
  BinaryReader r(encoded);
  Bytes canonical = r.bytes().value();
  const Bytes chain = r.bytes().value();
  if (inside) canonical.push_back(0x00);
  BinaryWriter w;
  w.bytes(canonical);
  w.bytes(chain);
  Bytes out = std::move(w).take();
  if (!inside) out.push_back(0x00);
  return out;
}

struct JournalMutantFixture : ::testing::Test {
  std::string dir;
  std::vector<SegmentImage> pristine;

  void SetUp() override {
    namespace fs = std::filesystem;
    dir = (fs::temp_directory_path() / "nonrep_fi_mutants").string();
    fs::remove_all(dir);
    auto opened = store::JournalLogBackend::open({.dir = dir, .segment_max_bytes = 1024});
    ASSERT_TRUE(opened.ok()) << opened.error().detail;
    auto* jb = opened.value().get();
    {
      store::EvidenceLog log(std::move(opened).take(), std::make_shared<SimClock>(1000));
      for (int i = 0; i < 30; ++i) {
        log.append(RunId("run-" + std::to_string(i / 4)),
                   i % 2 ? "token.NRR-response" : "token.NRO-request",
                   to_bytes("evidence payload " + std::to_string(i)));
      }
      ASSERT_TRUE(log.backend_status().ok());
      // Every record is durable; the process then dies, leaving the tail
      // segment open-ended exactly as a crash does.
      jb->writer().simulate_crash();
    }
    auto segs = journal::Segment::list(dir);
    ASSERT_TRUE(segs.ok());
    for (const auto& path : segs.value()) {
      auto scan = journal::Segment::scan(path);
      ASSERT_TRUE(scan.ok() && scan->clean()) << path;
      pristine.push_back({scan->first_sequence, std::move(scan->records)});
    }
    ASSERT_GE(pristine.size(), 3u) << "need closed segments around a middle one";
    ASSERT_GE(pristine[1].frames.size(), 4u);
    ASSERT_GE(pristine.back().frames.size(), 2u);
    ASSERT_EQ(audit_verdict(dir), "");
  }

  /// Replace the journal on disk with `segments`, every frame re-encoded
  /// (so with a valid CRC).
  void write_journal(const std::vector<SegmentImage>& segments) const {
    namespace fs = std::filesystem;
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& seg : segments) {
      Bytes file = journal::encode_segment_header(seg.first_sequence);
      for (const auto& frame : seg.frames) {
        append(file, journal::encode_frame(journal::RecordType::kData, frame.sequence,
                                           frame.payload));
      }
      std::ofstream out(fs::path(dir) / journal::segment_filename(seg.first_sequence),
                        std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(file.data()),
                static_cast<std::streamsize>(file.size()));
    }
  }
};

TEST_F(JournalMutantFixture, EveryTamperIsRejectedExceptACrashCut) {
  using Segments = std::vector<SegmentImage>;
  struct Mutant {
    const char* name;
    std::function<void(Segments&)> mutate;
    const char* caught_by;
  };
  const auto flip_payload = [](journal::Record& frame) {
    auto rec = store::decode_log_record(frame.payload).value();
    rec.payload[0] ^= 0x01;
    frame.payload = store::encode_log_record(rec);  // keeps the old chain digest
  };
  const std::vector<Mutant> mutants = {
      {"drop a whole frame",
       [](Segments& s) { s[1].frames.erase(s[1].frames.begin() + 2); },
       "journal.sequence_gap"},
      {"swap two frames",
       [](Segments& s) { std::swap(s[1].frames[1], s[1].frames[2]); },
       "journal.sequence_gap"},
      {"cut a non-final segment at a frame boundary",
       [](Segments& s) { s[1].frames.pop_back(); },
       "journal.sequence_gap"},
      {"delete a middle segment",
       [](Segments& s) { s.erase(s.begin() + 1); },
       "journal.sequence_gap"},
      {"flip a body byte, CRC recomputed",
       [&](Segments& s) { flip_payload(s[1].frames[2]); },
       "log.chain_mismatch"},
      {"junk byte inside a record in a closed segment",
       [](Segments& s) { s[1].frames[2].payload = with_junk_byte(s[1].frames[2].payload, true); },
       "log.trailing_bytes"},
      {"junk byte after a record in a closed segment",
       [](Segments& s) { s[1].frames[2].payload = with_junk_byte(s[1].frames[2].payload, false); },
       "log.trailing_bytes"},
      {"junk byte inside a record in the open tail segment",
       [](Segments& s) {
         auto& last = s.back().frames.back();
         last.payload = with_junk_byte(last.payload, true);
       },
       "log.trailing_bytes"},
      {"junk byte after a record in the open tail segment",
       [](Segments& s) {
         auto& last = s.back().frames.back();
         last.payload = with_junk_byte(last.payload, false);
       },
       "log.trailing_bytes"},
  };
  for (const auto& mutant : mutants) {
    SCOPED_TRACE(mutant.name);
    Segments segments = pristine;
    mutant.mutate(segments);
    write_journal(segments);
    EXPECT_EQ(audit_verdict(dir), mutant.caught_by);
  }

  // Cutting the final segment at a frame boundary is ACCEPTED: a crash
  // before that frame's write leaves exactly these bytes, so nothing in the
  // journal can tell this mutant from an honest crash. What survives is a
  // gap-free prefix of genuine evidence; the lost record can only be proved
  // by evidence held outside this journal (the peer's copy).
  Segments cut = pristine;
  cut.back().frames.pop_back();
  write_journal(cut);
  EXPECT_EQ(audit_verdict(dir), "");

  write_journal(pristine);
  EXPECT_EQ(audit_verdict(dir), "");
}

TEST_F(FailureFixture, EndToEndRunSurvivesTornWriteAndAudits) {
  namespace fs = std::filesystem;
  const std::string jdir = (fs::temp_directory_path() / "nonrep_fi_e2e_journal").string();
  fs::remove_all(jdir);

  // A client whose evidence log is journal-backed performs a real
  // non-repudiable exchange.
  auto backend =
      store::JournalLogBackend::open({.dir = jdir})
          .take();
  auto* journal_backend = backend.get();
  auto& client = world.add_party("client", {}, std::move(backend));
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean,
              container::DeploymentDescriptor{.non_repudiation = true});
  auto nr = install_nr_server(*server.coordinator, cont);

  DirectInvocationClient handler(*client.coordinator);
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("payload");
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  world.network.run();
  ASSERT_TRUE(result.ok());
  const RunId run = handler.last_run();
  const std::size_t logged = client.log->size();
  ASSERT_GT(logged, 0u);
  EXPECT_TRUE(client.log->backend_status().ok());

  // Crash: the process dies mid-append, leaving a torn final record.
  journal_backend->writer().simulate_crash();
  {
    auto segs = journal::Segment::list(jdir);
    ASSERT_TRUE(segs.ok());
    const Bytes torn =
        journal::encode_frame(journal::RecordType::kData, logged, to_bytes("torn"));
    std::ofstream out(segs.value().back(), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size()) / 2);
  }

  // Restart: recovery truncates the torn record, keeps every complete one
  // with sequence continuity, and the evidence chain still verifies.
  auto reopened =
      store::JournalLogBackend::open({.dir = jdir});
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_GT(reopened.value()->recovery().truncated_bytes, 0u);
  store::EvidenceLog recovered(std::move(reopened).take(), world.clock);
  ASSERT_EQ(recovered.size(), logged);
  EXPECT_TRUE(recovered.verify_chain().ok());
  EXPECT_TRUE(recovered.find(run, "token.NRO-request").has_value());
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered.records()[i].sequence, i);
  }
  // The recovered log keeps appending where it left off.
  recovered.append(run, "post-recovery", to_bytes("x"));
  EXPECT_TRUE(recovered.backend_status().ok());
  EXPECT_TRUE(recovered.verify_chain().ok());

  // And the journal directory audits clean (CRCs, sequences).
  EXPECT_TRUE(scans_clean(jdir));
}

// ---- fail closed on a failed barrier ----

TEST_F(FailureFixture, CrashedJournalFailsIssueAndAcceptClosed) {
  namespace fs = std::filesystem;
  const std::string jdir = (fs::temp_directory_path() / "nonrep_fi_fail_closed").string();
  fs::remove_all(jdir);
  auto backend =
      store::JournalLogBackend::open({.dir = jdir})
          .take();
  auto* journal_backend = backend.get();
  auto& client = world.add_party("client", {}, std::move(backend));
  auto& server = world.add_party("server");
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean,
              container::DeploymentDescriptor{.non_repudiation = true});
  auto nr = install_nr_server(*server.coordinator, cont);

  // A token from a healthy peer, for the accept half below.
  const Bytes subject = to_bytes("subject");
  auto foreign = server.evidence->issue(EvidenceType::kNroRequest, RunId("r-accept"), subject);
  ASSERT_TRUE(foreign.ok());

  journal_backend->writer().simulate_crash();
  const std::size_t logged = client.log->size();

  // issue: the token's record cannot be persisted, so no token comes back.
  auto issued = client.evidence->issue(EvidenceType::kNroRequest, RunId("r-issue"), subject);
  ASSERT_FALSE(issued.ok());
  EXPECT_TRUE(issued.error().code.starts_with("journal.")) << issued.error().code;

  // accept: verification passes, persistence does not — the failure is
  // returned instead of being recorded and ignored.
  auto accepted = client.evidence->accept(foreign.value(), subject);
  ASSERT_FALSE(accepted.ok());
  EXPECT_TRUE(accepted.error().code.starts_with("journal.")) << accepted.error().code;

  // End to end: the client's NRO_req is never released, so the server sees
  // no request and logs nothing.
  const std::size_t server_logged = server.log->size();
  const std::uint64_t sent_before = world.network.stats().sent;
  DirectInvocationClient handler(*client.coordinator);
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("payload");
  inv.caller = client.id;
  auto result = handler.invoke("server", inv);
  world.network.run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(server.log->size(), server_logged);
  EXPECT_EQ(world.network.stats().sent, sent_before);
  // Records stay in memory (the party can still audit what it attempted),
  // but none of them became evidence on disk.
  EXPECT_GT(client.log->size(), logged);
  EXPECT_FALSE(client.log->backend_status().ok());
}

// ---- write-ahead at the send ----
//
// issue/accept only stage records; a party makes them durable once, when a
// message leaves it. GatedLogBackend lets a test fail that barrier after the
// records were staged. Records go to `inner` at once, but every receipt
// hangs on the double's own watermark, which moves only when the evidence
// log asks for a barrier (EvidenceLog::settle -> sync). The barrier whose
// newest record has kind `fail_kind` fails instead: `on_fail` runs first (a
// crash drill kills the real journal there), then the watermark fails for
// good. Single-threaded use only (classic network mode).
class GatedLogBackend final : public store::LogBackend {
 public:
  GatedLogBackend(std::unique_ptr<store::LogBackend> inner, std::string fail_kind,
                  std::function<void()> on_fail = {})
      : inner_(std::move(inner)), fail_kind_(std::move(fail_kind)), on_fail_(std::move(on_fail)) {}

  Status append(const store::LogRecord& record) override {
    auto staged = append_async(record);
    if (!staged) return staged.error();
    if (auto synced = sync(); !synced) return synced;
    return staged.value().durable.wait();
  }
  Result<store::AppendReceipt> append_async(const store::LogRecord& record) override {
    auto staged = inner_->append_async(record);
    if (!staged) return staged.error();
    last_kind_ = record.kind;
    return store::AppendReceipt{journal::DurableFuture(gate_, ++staged_)};
  }
  std::vector<store::LogRecord> load() override { return inner_->load(); }
  Status health() const override {
    if (auto failed = gate_error(); !failed) return failed;
    return inner_->health();
  }
  Status sync() override {
    if (auto failed = gate_error(); !failed) return failed;
    Status synced = Status::ok_status();
    if (last_kind_ == fail_kind_) {
      if (on_fail_) on_fail_();
      synced = inner_->health();
      if (synced) synced = Error::make("journal.injected", "barrier failed after staging");
    } else {
      synced = inner_->sync();
    }
    if (!synced) {
      gate_->fail(synced);
      return synced;
    }
    gate_->retire(staged_, 0);
    return Status::ok_status();
  }

 private:
  Status gate_error() const {
    util::MutexLock lk(gate_->mu);
    return gate_->error;
  }

  std::unique_ptr<store::LogBackend> inner_;
  std::string fail_kind_;
  std::function<void()> on_fail_;
  std::shared_ptr<journal::DurabilityState> gate_ = std::make_shared<journal::DurabilityState>();
  std::uint64_t staged_ = 0;
  std::string last_kind_;
};

std::unique_ptr<store::LogBackend> gated_memory(std::string fail_kind) {
  return std::make_unique<GatedLogBackend>(std::make_unique<store::MemoryLogBackend>(),
                                           std::move(fail_kind));
}

Invocation echo_invocation(const PartyId& caller) {
  Invocation inv;
  inv.service = ServiceUri("svc://server/echo");
  inv.method = "echo";
  inv.arguments = to_bytes("payload");
  inv.caller = caller;
  return inv;
}

struct WriteAheadFixture : FailureFixture {
  void serve(test::Party& server) {
    auto bean = std::make_shared<container::Component>();
    bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
    cont.deploy(ServiceUri("svc://server/echo"), bean,
                container::DeploymentDescriptor{.non_repudiation = true});
    nr = install_nr_server(*server.coordinator, cont);
  }

  // A signed step-1 message for a fresh run of `client`.
  ProtocolMessage step1(test::Party& client) {
    Invocation inv = echo_invocation(client.id);
    const RunId run = client.evidence->new_run();
    inv.context[container::kRunIdContextKey] = run.str();
    auto nro_req = client.evidence->issue(EvidenceType::kNroRequest, run, request_subject(inv));
    EXPECT_TRUE(nro_req.ok());  // staged only: issue does not wait
    ProtocolMessage m1;
    m1.protocol = kDirectInvocationProtocol;
    m1.run = run;
    m1.step = 1;
    m1.sender = client.id;
    m1.body = container::encode_invocation(inv);
    if (nro_req) m1.tokens.push_back(std::move(nro_req).take());
    return m1;
  }

  container::Container cont;
  std::shared_ptr<DirectInvocationServer> nr;
};

TEST_F(WriteAheadFixture, FailedBarrierBeforeRequestSendsNothing) {
  auto& client = world.add_party("client", {}, gated_memory("token.NRO-request"));
  auto& server = world.add_party("server");
  serve(server);
  const ProtocolMessage m1 = step1(client);
  const std::size_t server_logged = server.log->size();
  const std::uint64_t sent_before = world.network.stats().sent;

  auto reply = client.coordinator->deliver_request("server", m1, 1000);
  world.network.run();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, "journal.injected");
  EXPECT_EQ(world.network.stats().sent, sent_before);
  EXPECT_EQ(server.log->size(), server_logged);
  EXPECT_FALSE(client.log->backend_status().ok());
}

TEST_F(WriteAheadFixture, FailedReplyBarrierRepliesWithErrorAndNoTokens) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server", {}, gated_memory("token.NRO-response"));
  serve(server);
  const ProtocolMessage m1 = step1(client);

  // A raw endpoint sees the reply bytes the coordinator would turn into an
  // error: the server signed and staged NRR_req and NRO_resp, but neither
  // left it.
  net::RpcEndpoint probe(world.network, "probe");
  auto raw = probe.call("server", m1.encode(), 1000);
  ASSERT_TRUE(raw.ok()) << raw.error().code;
  auto reply = ProtocolMessage::decode(raw.value());
  ASSERT_TRUE(reply.ok());
  auto error = as_error(reply.value());
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, "journal.injected");
  EXPECT_TRUE(reply.value().tokens.empty());
  EXPECT_TRUE(server.log->find(m1.run, "token.NRO-response").has_value());
}

TEST_F(WriteAheadFixture, FailedStep3BarrierWithholdsReceiptAndFailsInvoke) {
  auto& client = world.add_party("client", {}, gated_memory("token.NRR-response"));
  auto& server = world.add_party("server");
  serve(server);
  DirectInvocationClient handler(*client.coordinator);
  Invocation inv = echo_invocation(client.id);
  auto result = handler.invoke("server", inv);
  world.network.run();

  // The application gets the barrier's error, not the result.
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "journal.injected");
  const RunId run = handler.last_run();
  EXPECT_TRUE(nr->evidence_for(run).has_nro_response);
  EXPECT_FALSE(nr->evidence_for(run).has_nrr_response);
  EXPECT_FALSE(nr->run_complete(run));
  EXPECT_FALSE(server.log->find(run, "token.NRR-response").has_value());
}

TEST_F(WriteAheadFixture, FailedDeferredReplyBarrierRepliesWithErrorAndNoAffidavit) {
  // The inline TTP answers from a continuation (defer_reply); that answer
  // passes the same barrier as a returned reply.
  auto& client = world.add_party("client");
  auto& server = world.add_party("server");
  auto& ttp = world.add_party("ttp", {}, gated_memory("token.affidavit"));
  serve(server);
  ttp.coordinator->register_handler(std::make_shared<InlineTtpRelay>(
      *ttp.coordinator, [](const net::Address&) { return std::nullopt; }));

  InlineTtpInvocationClient handler(*client.coordinator, "ttp");
  Invocation inv = echo_invocation(client.id);
  auto result = handler.invoke("server", inv);
  world.network.run();

  EXPECT_FALSE(result.ok());
  EXPECT_EQ(nonrep::to_string(result.payload), "journal.injected");
  EXPECT_FALSE(handler.last_run_has_affidavit());
  EXPECT_FALSE(handler.last_run_evidence().has_nro_response);
  EXPECT_EQ(cont.executions(), 1u);  // the server ran; the TTP withheld its reply
}

// No send follows a TTP verdict, so no send's barrier covers its tokens:
// the party passes the barrier itself before it acts on the verdict.
TEST_F(WriteAheadFixture, FailedVerdictBarrierFailsTheAbortedInvoke) {
  auto& client = world.add_party("client", {}, gated_memory("token.abort"));
  auto& server = world.add_party("server");
  auto& ttp = world.add_party("ttp");
  serve(server);
  ttp.coordinator->register_handler(std::make_shared<OptimisticTtp>(*ttp.coordinator));
  world.network.set_partitioned("client", "server", true);

  OptimisticInvocationClient handler(*client.coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  Invocation inv = echo_invocation(client.id);
  auto result = handler.invoke("server", inv);

  EXPECT_EQ(result.outcome, container::Outcome::kFailure);
  EXPECT_EQ(nonrep::to_string(result.payload), "journal.injected");
  EXPECT_EQ(handler.last_outcome(), OptimisticInvocationClient::LastOutcome::kFailed);
  EXPECT_FALSE(client.log->backend_status().ok());
}

TEST_F(WriteAheadFixture, FailedAffidavitBarrierLeavesTheReceiptMissing) {
  auto& client = world.add_party("client");
  auto& server = world.add_party("server", {}, gated_memory("token.affidavit"));
  auto& ttp = world.add_party("ttp");
  serve(server);
  ttp.coordinator->register_handler(std::make_shared<OptimisticTtp>(*ttp.coordinator));
  // The client sends step 1 and withholds its receipt.
  const ProtocolMessage m1 = step1(client);
  ASSERT_TRUE(client.coordinator->deliver_request("server", m1, 1000).ok());
  ASSERT_EQ(nr->pending_runs(), 1u);

  auto status = reclaim_receipt(*server.coordinator, *nr, m1.run, "ttp", 1000);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "journal.injected");
  EXPECT_EQ(nr->pending_runs(), 1u);  // the affidavit never stood in
  EXPECT_FALSE(server.log->backend_status().ok());
}

TEST_F(WriteAheadFixture, DefaultJournalIsDurableOnceTheBarrierPasses) {
  // §3.5 assumption 3 with the journal as every deployment opens it: once
  // the write-ahead barrier a send would pass returns, the staged token
  // survives a crash.
  namespace fs = std::filesystem;
  const std::string jdir = (fs::temp_directory_path() / "nonrep_fi_default_barrier").string();
  fs::remove_all(jdir);
  auto opened = store::JournalLogBackend::open({.dir = jdir});
  ASSERT_TRUE(opened.ok()) << opened.error().detail;
  auto* jb = opened.value().get();
  auto& client = world.add_party("client", {}, std::move(opened).take());
  const RunId run = client.evidence->new_run();
  auto token = client.evidence->issue(EvidenceType::kNroRequest, run, to_bytes("subject"));
  ASSERT_TRUE(token.ok()) << token.error().code;

  ASSERT_TRUE(client.log->barrier().ok());
  journal::Writer& writer = jb->writer();
  EXPECT_TRUE(writer.durable_future(writer.stats().appends).ready());
  writer.simulate_crash();

  auto reopened = store::JournalLogBackend::open({.dir = jdir});
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  store::EvidenceLog recovered(std::move(reopened).take(), world.clock);
  EXPECT_EQ(recovered.size(), client.log->size());
  EXPECT_TRUE(recovered.find(run, "token.NRO-request").has_value());
  EXPECT_TRUE(recovered.verify_chain().ok());
}

// ---- crash drill at every send point ----
//
// The sending party's journal is killed (simulate_crash) inside the
// barrier of one send: its message never leaves. Whatever the point, the
// honest peer ends fair — the exchange completes, is aborted through the
// TTP, or is resolved through reclaim_receipt — the TTP reaches exactly one
// verdict, and the crashed journal reopens gap-free with a clean chain.

enum class SendPoint { kClientStep1, kServerReply, kClientStep3 };

struct CrashAtSendFixture : ::testing::TestWithParam<SendPoint> {
  static std::string dir_of(const std::string& party) {
    return (std::filesystem::temp_directory_path() / ("nonrep_fi_send_crash_" + party)).string();
  }

  // A fresh journal for `party`; when `crash_kind` is set, the
  // barrier whose newest record has that kind crashes the journal instead.
  static std::unique_ptr<store::LogBackend> journal_for(const std::string& party,
                                                        const std::string& crash_kind) {
    std::filesystem::remove_all(dir_of(party));
    auto opened = store::JournalLogBackend::open(
        {.dir = dir_of(party)});
    EXPECT_TRUE(opened.ok());
    std::unique_ptr<store::JournalLogBackend> backend = std::move(opened).take();
    if (crash_kind.empty()) return backend;
    store::JournalLogBackend* jb = backend.get();
    return std::make_unique<GatedLogBackend>(std::move(backend), crash_kind,
                                             [jb] { jb->writer().simulate_crash(); });
  }

  test::TestWorld world;
};

TEST_P(CrashAtSendFixture, HonestPeerEndsFairAndJournalReopensClean) {
  const SendPoint point = GetParam();
  const bool client_crashes = point != SendPoint::kServerReply;
  const std::string crash_kind = point == SendPoint::kClientStep1   ? "token.NRO-request"
                                 : point == SendPoint::kServerReply ? "token.NRO-response"
                                                                    : "token.NRR-response";
  auto& client = world.add_party("client", {},
                                 journal_for("client", client_crashes ? crash_kind : ""));
  auto& server = world.add_party("server", {},
                                 journal_for("server", client_crashes ? "" : crash_kind));
  auto& ttp = world.add_party("ttp");
  auto ttp_handler = std::make_shared<OptimisticTtp>(*ttp.coordinator);
  ttp.coordinator->register_handler(ttp_handler);
  container::Container cont;
  auto bean = std::make_shared<container::Component>();
  bean->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  cont.deploy(ServiceUri("svc://server/echo"), bean, container::DeploymentDescriptor{});
  auto nr = install_nr_server(*server.coordinator, cont);

  OptimisticInvocationClient handler(*client.coordinator, "ttp",
                                     InvocationConfig{.request_timeout = 300});
  Invocation inv = echo_invocation(client.id);
  auto result = handler.invoke("server", inv);
  world.network.run();
  const RunId run = handler.last_run();
  EXPECT_FALSE(result.ok());  // the crashed party's message never left

  test::Party& crashed = client_crashes ? client : server;
  const std::string crashed_dir = dir_of(client_crashes ? "client" : "server");
  const std::vector<store::LogRecord> staged = crashed.log->records();

  // The crashed journal reopens as a gap-free prefix of what was staged.
  auto reopened = store::JournalLogBackend::open(
      {.dir = crashed_dir});
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  auto recovered = std::make_shared<store::EvidenceLog>(std::move(reopened).take(), world.clock);
  EXPECT_TRUE(recovered->verify_chain().ok());
  ASSERT_GT(recovered->size(), 0u);
  ASSERT_LE(recovered->size(), staged.size());
  for (std::size_t i = 0; i < recovered->size(); ++i) {
    EXPECT_EQ(recovered->records()[i].sequence, i);
    EXPECT_EQ(recovered->records()[i].chain, staged[i].chain) << i;
  }
  EXPECT_TRUE(scans_clean(crashed_dir));

  switch (point) {
    case SendPoint::kClientStep1: {
      // The server never saw the run and owes nothing. The client, back
      // from its journal, asks the TTP to abort the run it had started.
      EXPECT_TRUE(server.log->find_run(run).empty());
      auto nro_req = recovered->find(run, "token.NRO-request");
      ASSERT_TRUE(nro_req.has_value());
      auto token = EvidenceToken::decode(nro_req->payload);
      ASSERT_TRUE(token.ok());
      auto& restarted = world.add_party("client-restarted");
      ProtocolMessage abort_msg;
      abort_msg.protocol = kFairTtpProtocol;
      abort_msg.run = run;
      abort_msg.step = kStepAbortRequest;
      abort_msg.sender = client.id;
      abort_msg.body = request_subject(inv);
      abort_msg.tokens.push_back(std::move(token).take());
      auto verdict = restarted.coordinator->deliver_request("ttp", abort_msg, 1000);
      ASSERT_TRUE(verdict.ok()) << verdict.error().code;
      EXPECT_EQ(verdict.value().step, kStepAborted);
      EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kAborted);
      break;
    }
    case SendPoint::kServerReply:
      // The client got an error instead of tokens and aborted through the
      // TTP; it holds the TTP's abort token.
      EXPECT_EQ(handler.last_outcome(), OptimisticInvocationClient::LastOutcome::kAborted);
      EXPECT_EQ(result.outcome, container::Outcome::kAborted);
      EXPECT_TRUE(client.log->find(run, "token.abort").has_value());
      EXPECT_FALSE(client.log->find(run, "token.NRO-response").has_value());
      EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kAborted);
      break;
    case SendPoint::kClientStep3: {
      // The server holds NRO_req but no receipt: it resolves through the TTP.
      EXPECT_FALSE(nr->run_complete(run));
      auto reclaimed = reclaim_receipt(*server.coordinator, *nr, run, "ttp", 1000);
      ASSERT_TRUE(reclaimed.ok()) << reclaimed.error().code;
      EXPECT_TRUE(nr->run_complete(run));
      EXPECT_TRUE(nr->evidence_for(run).receipt_substituted);
      EXPECT_EQ(ttp_handler->verdict(run), OptimisticTtp::Verdict::kResolved);
      EXPECT_TRUE(server.log->backend_status().ok());
      break;
    }
  }
  const auto [aborted, resolved] = ttp_handler->verdict_counts();
  EXPECT_EQ(aborted + resolved, 1u);
}

INSTANTIATE_TEST_SUITE_P(EverySendPoint, CrashAtSendFixture,
                         ::testing::Values(SendPoint::kClientStep1, SendPoint::kServerReply,
                                           SendPoint::kClientStep3),
                         [](const ::testing::TestParamInfo<SendPoint>& info) -> std::string {
                           switch (info.param) {
                             case SendPoint::kClientStep1: return "ClientBeforeStep1";
                             case SendPoint::kServerReply: return "ServerBeforeReply";
                             case SendPoint::kClientStep3: return "ClientBeforeStep3";
                           }
                           return "Unknown";
                         });

// ---- one journal, crashed with barriers in flight ----
//
// The writer can crash with barriers still queued or running. Power loss then leaves the journal cut somewhere past its
// durable watermark. Each frame carries its own payload, so whatever
// survives is self-contained evidence: recovery keeps a gap-free prefix,
// and no record whose ticket settled ok may be missing from it.

struct TornAsyncFixture : ::testing::Test {
  std::string dir;
  std::shared_ptr<SimClock> clock = std::make_shared<SimClock>(1000);
  RunId run{"torn-async"};

  journal::Options options(std::uint64_t segment_max_bytes = 4ull << 20) const {
    return {.dir = dir, .segment_max_bytes = segment_max_bytes};
  }

  void reset() {
    namespace fs = std::filesystem;
    dir = (fs::temp_directory_path() / "nonrep_fi_torn_async").string();
    fs::remove_all(dir);
  }

  // Build a journal with `records` distinct payloads staged without
  // waiting, make everything durable, then crash the writer — the on-disk
  // state of a process that died between two appends.
  void build(int records, std::uint64_t segment_max_bytes = 4ull << 20) {
    reset();
    auto opened = store::JournalLogBackend::open(options(segment_max_bytes));
    ASSERT_TRUE(opened.ok()) << opened.error().detail;
    auto* jb = opened.value().get();
    store::EvidenceLog log(std::move(opened).take(), clock);
    for (int i = 0; i < records; ++i) {
      log.append_async(run, "blob", to_bytes("payload-" + std::to_string(i)));
    }
    ASSERT_TRUE(jb->sync().ok());
    ASSERT_TRUE(log.backend_status().ok());
    jb->writer().simulate_crash();
  }
};

TEST_F(TornAsyncFixture, KilledWriterKeepsEverySettledRecord) {
  // Vary where the kill lands: after `settled_first` records were appended
  // and settled, a burst of 48 more is staged with append_async (several
  // per-record barriers in flight, none awaited) and the writer dies.
  for (const int settled_first : {0, 5, 23}) {
    SCOPED_TRACE("settled_first=" + std::to_string(settled_first));
    reset();
    std::vector<store::LogRecord> staged;
    std::vector<store::AppendReceipt> receipts;
    {
      auto opened =
          store::JournalLogBackend::open({.dir = dir});
      ASSERT_TRUE(opened.ok()) << opened.error().detail;
      auto* jb = opened.value().get();
      store::EvidenceLog log(std::move(opened).take(), clock);
      for (int i = 0; i < settled_first + 48; ++i) {
        auto receipt = log.append_async(run, "token.NRO-request",
                                        to_bytes("evidence-" + std::to_string(i)));
        if (i < settled_first) ASSERT_TRUE(log.settle(receipt).ok());
        staged.push_back(log.records().back());
        receipts.push_back(std::move(receipt));
      }
      jb->writer().simulate_crash();
    }

    // Every ticket settles one way or the other once the writer is dead.
    std::size_t settled_ok = 0;
    for (std::size_t i = 0; i < receipts.size(); ++i) {
      if (receipts[i].durable.wait().ok()) settled_ok = i + 1;
    }
    EXPECT_GE(settled_ok, static_cast<std::size_t>(settled_first));

    auto reopened = store::JournalLogBackend::open({.dir = dir});
    ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
    store::EvidenceLog recovered(std::move(reopened).take(), clock);
    EXPECT_TRUE(recovered.verify_chain().ok());  // gap-free, untampered prefix
    ASSERT_GE(recovered.size(), settled_ok);
    ASSERT_LE(recovered.size(), staged.size());
    for (std::size_t i = 0; i < recovered.size(); ++i) {
      EXPECT_EQ(recovered.records()[i].chain, staged[i].chain) << i;
      EXPECT_EQ(recovered.records()[i].payload, staged[i].payload) << i;
    }
    // And the journal keeps going from exactly the recovered prefix.
    recovered.append(run, "blob", to_bytes("post-recovery"));
    EXPECT_TRUE(recovered.backend_status().ok());
    EXPECT_TRUE(recovered.verify_chain().ok());
  }
}

TEST_F(TornAsyncFixture, CrashMidRotationLeavesRecoverableJournal) {
  // Small segments force rotations before the crash. A stray file that is
  // not a segment (an older build left a preallocated `.spare.wal` here)
  // must be invisible to recovery.
  build(40, /*segment_max_bytes=*/2048);
  {
    std::ofstream out(dir + "/.spare.wal", std::ios::binary | std::ios::trunc);
    out << "half-prepared spare, never swapped in";
  }
  auto reopened = store::JournalLogBackend::open(options(2048));
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;
  EXPECT_GE(reopened.value()->recovery().segments.size(), 2u);

  store::EvidenceLog recovered(std::move(reopened).take(), clock);
  ASSERT_EQ(recovered.size(), 40u);
  EXPECT_TRUE(recovered.verify_chain().ok());
  recovered.append(run, "blob", to_bytes("post-recovery"));
  EXPECT_TRUE(recovered.backend_status().ok());
}

TEST_F(TornAsyncFixture, VanishedTailAfterRotationKeepsPrefix) {
  namespace fs = std::filesystem;
  // Power loss before the rotation's directory fsync can make the freshly
  // created tail segment vanish entirely: the segments before it must load
  // and the writer must resume after their last record.
  build(40, /*segment_max_bytes=*/2048);
  auto segs = journal::Segment::list(dir);
  ASSERT_TRUE(segs.ok());
  ASSERT_GE(segs.value().size(), 2u) << "need a rotation for this scenario";
  fs::remove(segs.value().back());

  auto expected = journal::Reader::recover(dir, journal::RecoverMode::kScanOnly);
  ASSERT_TRUE(expected.ok());
  const std::size_t surviving = expected->records.size();
  ASSERT_GT(surviving, 0u);
  ASSERT_LT(surviving, 40u);

  auto reopened = store::JournalLogBackend::open(options(2048));
  ASSERT_TRUE(reopened.ok()) << reopened.error().detail;

  store::EvidenceLog recovered(std::move(reopened).take(), clock);
  ASSERT_EQ(recovered.size(), surviving);
  EXPECT_TRUE(recovered.verify_chain().ok());
  recovered.append(run, "blob", to_bytes("post-recovery"));
  EXPECT_TRUE(recovered.backend_status().ok());
  EXPECT_EQ(recovered.records().back().sequence, surviving);
}

TEST_F(FailureFixture, DuplicatedDecisionIsIdempotent) {
  build(3);
  world.network.set_link(nodes[0].party->address, nodes[1].party->address,
                         net::LinkConfig{.latency = 5, .duplicate = 1.0});
  auto v = nodes[0].controller->propose_update(kObj, to_bytes("v2"));
  ASSERT_TRUE(v.ok());
  world.network.run();
  EXPECT_EQ(nodes[1].controller->get(kObj).value().version, 2u);
  EXPECT_EQ(nodes[1].controller->get(kObj).value().state, to_bytes("v2"));
}

}  // namespace
}  // namespace nonrep::core
