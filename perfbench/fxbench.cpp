// fxbench — open-loop fair-exchange benchmark over the live concurrent fleet.
//
//   fxbench --workload <fx_direct|fx_durable|fx_inline_ttp> --seed N
//           --seconds S --trace 0|1 [--out-dir DIR] [--rate R] [--clients N]
//   fxbench --self-test [--out-dir DIR]
//
// --rate and --clients override a workload's offered rate and client count
// for capacity sizing and for reproducing the inline-relay wedge (NOTES.md);
// benchmark runs never pass them.
//
// The fleet is a scenario::World (CA, object store, SimNetwork) whose
// parties are assembled here from public constructors, on the concurrent
// runtime: a util::ThreadPool behind the network and one live pump thread.
// One injector thread per client party fires that party's share of a fixed
// open-loop timeline (request i is due at t0 + i/rate) and times every
// exchange from its scheduled slot, so a stall also charges the requests
// queued behind it (coordinated-omission safe).
//
// --trace 0 measures the end-to-end metrics with no instrumentation added.
// --trace 1 runs the same window untraced (the overhead baseline) and then
// on a fleet whose layer seams carry timing decorators — crypto::Signer,
// core::TimestampHook, store::LogBackend, core::ProtocolHandler and a
// container::Interceptor placed first in the server container — and folds
// their spans into per-layer metrics and a "where the time goes" table.
// Both modes gate correctness after every window (chains, backend health,
// per-run evidence, relay affidavits, journal reopen) and print one JSON
// object as the last line of standard output.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "container/container.hpp"
#include "core/fair_exchange.hpp"
#include "core/ttp.hpp"
#include "crypto/signer.hpp"
#include "obs/metrics.hpp"
#include "scenario/world.hpp"
#include "store/journal_backend.hpp"
#include "tsa/timestamp.hpp"
#include "util/lock_discipline.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace nonrep;

namespace {

// ------------------------------------------------------------ workloads

struct Spec {
  const char* name;
  double rate;          // offered requests per wall second
  std::size_t clients;  // client parties
  bool durable;         // object-mode journals (kEveryRecord) + TSA
  bool inline_ttp;      // every exchange relayed through an InlineTtpRelay
};

// Rates sit at about a fifth of the closed-loop capacity each workload was
// sized against (NOTES.md), so host stalls drain instead of snowballing.
constexpr std::array<Spec, 3> kSpecs = {{
    {"fx_direct", 500.0, 4, false, false},
    {"fx_durable", 120.0, 4, true, false},
    {"fx_inline_ttp", 300.0, 2, false, true},
}};

constexpr std::size_t kRsaBits = 512;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kPoolWorkers = 4;
constexpr std::size_t kSetupRepeats = 9;
constexpr std::uint64_t kSetupSeedBase = 0x5e7;
constexpr double kWarmupSeconds = 1.0;
// Requests still unstarted this long after the window closes are dropped
// and counted as failed, which bounds a run on an overloaded host.
constexpr std::uint64_t kBacklogGraceNs = 5'000'000'000;
// Virtual ms. Generous: a slow host must surface as latency, not as aborts.
constexpr TimeMs kRequestTimeout = 5000;
constexpr const char* kServer = "server";
constexpr const char* kTtp = "ttp";

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The request payload is the only input the fleet receives per exchange;
// it depends on the seed and the request index alone.
Bytes payload_for(std::uint64_t seed, std::size_t index) {
  std::uint64_t state = seed * 0x100000001B3ull + index;
  Bytes out(kPayloadBytes);
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t word = splitmix64(state);
    for (std::size_t b = 0; b < 8 && i + b < out.size(); ++b) {
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// ---------------------------------------------------------------- spans

enum class Kind : std::uint8_t {
  kClient,        // one exchange, around the client invocation handler
  kSign,          // crypto::Signer::sign
  kCountersign,   // core::TimestampHook::countersign
  kAppend,        // store::LogBackend::append / append_async
  kSync,          // store::LogBackend::sync (the durable-wait barrier)
  kServer,        // DirectInvocationServer request step
  kServerOneway,  // DirectInvocationServer one-way step (receipt)
  kRelay,         // InlineTtpRelay request step
  kRelayOneway,   // InlineTtpRelay one-way step
  kTtp,           // OptimisticTtp abort/resolve
  kContainer,     // server container chain, component included
  kCount
};
constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
constexpr std::array<const char*, kKinds> kKindNames = {
    "core.client_invoke", "crypto.sign",          "tsa.countersign",   "store.append",
    "store.sync",         "core.server_handler",  "core.server_oneway", "core.relay_handler",
    "core.relay_oneway",  "core.ttp_handler",     "container.invoke"};

std::size_t idx(Kind k) { return static_cast<std::size_t>(k); }

// Request steps of other parties run on pool workers while the caller
// blocks; they are linked to the caller's span through the run id.
bool linked_kind(Kind k) { return k == Kind::kServer || k == Kind::kRelay || k == Kind::kTtp; }

std::uint64_t run_key(const std::string& run) { return std::hash<std::string>{}(run) | 1u; }

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t run = 0;     // run-id hash on client and handler spans, else 0
  std::int32_t parent = -1;  // enclosing span on the same thread
  Kind kind = Kind::kClient;
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

// Spans stay in benchmark memory: one buffer per thread, appended without
// locks by its owner and read only once the traced fleet is torn down.
class SpanStore {
 public:
  static SpanStore& instance() {
    static SpanStore store;
    return store;
  }

  ThreadSpans& local() {
    thread_local std::shared_ptr<ThreadSpans> mine;
    if (!mine) {
      mine = std::make_shared<ThreadSpans>();
      mine->spans.reserve(1u << 15);
      util::MutexLock lk(mu_);
      threads_.push_back(mine);
    }
    return *mine;
  }

  // Quiescent use only (no fleet running).
  std::vector<std::shared_ptr<ThreadSpans>> threads() const {
    util::MutexLock lk(mu_);
    return threads_;
  }
  void clear() {
    util::MutexLock lk(mu_);
    for (auto& t : threads_) t->spans.clear();
  }

 private:
  mutable util::Mutex mu_{util::LockRank::kLeaf, "perfbench.spans"};
  std::vector<std::shared_ptr<ThreadSpans>> threads_ NONREP_GUARDED_BY(mu_);
};

class SpanScope {
 public:
  explicit SpanScope(Kind kind, std::uint64_t run = 0)
      : spans_(SpanStore::instance().local()),
        index_(static_cast<std::int32_t>(spans_.spans.size())) {
    const std::int32_t parent = spans_.open.empty() ? -1 : spans_.open.back();
    spans_.spans.push_back(Span{now_ns(), 0, run, parent, kind});
    spans_.open.push_back(index_);
  }
  ~SpanScope() {
    spans_.spans[static_cast<std::size_t>(index_)].end = now_ns();
    spans_.open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_run(std::uint64_t run) { spans_.spans[static_cast<std::size_t>(index_)].run = run; }

 private:
  ThreadSpans& spans_;
  std::int32_t index_;
};

// ----------------------------------------------------- timing decorators

class TimedSigner final : public crypto::Signer {
 public:
  explicit TimedSigner(std::shared_ptr<crypto::Signer> inner) : inner_(std::move(inner)) {}
  crypto::SigAlgorithm algorithm() const noexcept override { return inner_->algorithm(); }
  Bytes public_key() const override { return inner_->public_key(); }
  Result<Bytes> sign(BytesView msg) override {
    SpanScope span(Kind::kSign);
    return inner_->sign(msg);
  }

 private:
  std::shared_ptr<crypto::Signer> inner_;
};

class TimedTimestampHook final : public core::TimestampHook {
 public:
  explicit TimedTimestampHook(std::shared_ptr<core::TimestampHook> inner)
      : inner_(std::move(inner)) {}
  Result<Bytes> countersign(BytesView data) override {
    SpanScope span(Kind::kCountersign);
    return inner_->countersign(data);
  }

 private:
  std::shared_ptr<core::TimestampHook> inner_;
};

class TimedLogBackend final : public store::LogBackend {
 public:
  explicit TimedLogBackend(std::unique_ptr<store::LogBackend> inner) : inner_(std::move(inner)) {}
  Status append(const store::LogRecord& record) override {
    SpanScope span(Kind::kAppend);
    return inner_->append(record);
  }
  Result<store::AppendReceipt> append_async(const store::LogRecord& record) override {
    SpanScope span(Kind::kAppend);
    return inner_->append_async(record);
  }
  std::vector<store::LogRecord> load() override { return inner_->load(); }
  Status health() const override { return inner_->health(); }
  Status sync() override {
    SpanScope span(Kind::kSync);
    return inner_->sync();
  }

 private:
  std::unique_ptr<store::LogBackend> inner_;
};

class TimedHandler final : public core::ProtocolHandler {
 public:
  TimedHandler(std::shared_ptr<core::ProtocolHandler> inner, Kind request, Kind oneway)
      : inner_(std::move(inner)), request_(request), oneway_(oneway) {}
  std::string protocol() const override { return inner_->protocol(); }
  Result<core::ProtocolMessage> process_request(const net::Address& from,
                                                const core::ProtocolMessage& msg) override {
    SpanScope span(request_, run_key(msg.run.str()));
    return inner_->process_request(from, msg);
  }
  void process(const net::Address& from, const core::ProtocolMessage& msg) override {
    SpanScope span(oneway_, run_key(msg.run.str()));
    inner_->process(from, msg);
  }

 private:
  std::shared_ptr<core::ProtocolHandler> inner_;
  Kind request_;
  Kind oneway_;
};

class TimedInterceptor final : public container::Interceptor {
 public:
  std::string name() const override { return "perfbench-timing"; }
  container::InvocationResult invoke(container::Invocation& inv,
                                     container::InterceptorChain& next) override {
    SpanScope span(Kind::kContainer);
    return next.proceed(inv);
  }
};

// ----------------------------------------------------------- host speed

// The reference host is a shared VM whose speed drifts by tens of percent
// from minute to minute, which no amount of run length averages away. A
// fixed integer chunk, timed every 10 ms on its own thread alongside the
// measured work, tracks that drift; the gated times are scaled by
// kRefChunkNs / (median chunk time over the same interval), i.e. reported
// in reference-host time. The chunk touches no repository code, so no
// change under test can move it except by starving the CPU it runs on.
constexpr double kRefChunkNs = 45000.0;  // the chunk on the sizing VM

class HostSpeed {
 public:
  HostSpeed() : thread_([this] { sample(); }) {}
  ~HostSpeed() { stop(); }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  // One timed run of the reference chunk on the calling thread.
  static double chunk_ns() {
    const std::uint64_t t = now_ns();
    std::uint64_t x = t;
    for (int k = 0; k < 20000; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    sink_.store(x, std::memory_order_relaxed);  // keeps the loop observable
    return static_cast<double>(now_ns() - t);
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  // After stop(): reference time per measured time over [from, to), and
  // the sampler's own CPU there (to keep it out of the process total).
  double factor(std::uint64_t from, std::uint64_t to) const {
    std::vector<double> wall;
    for (const Sample& s : samples_) {
      if (s.at >= from && s.at < to) wall.push_back(s.wall_ns);
    }
    return wall.empty() ? 1.0 : kRefChunkNs / median_of(std::move(wall));
  }
  double cpu_us(std::uint64_t from, std::uint64_t to) const {
    double ns = 0;
    for (const Sample& s : samples_) {
      if (s.at >= from && s.at < to) ns += s.cpu_ns;
    }
    return ns / 1e3;
  }

 private:
  struct Sample {
    std::uint64_t at;
    double wall_ns;
    double cpu_ns;
  };

  static double thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  }

  void sample() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const double cpu0 = thread_cpu_ns();
      const std::uint64_t at = now_ns();
      const double wall = chunk_ns();
      samples_.push_back({at, wall, thread_cpu_ns() - cpu0});
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  static inline std::atomic<std::uint64_t> sink_{0};
  std::vector<Sample> samples_;  // sampler thread only, until stop()
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts once the members above exist
};

// ---------------------------------------------------------------- fleet

struct Member {
  PartyId id;
  net::Address address;
  std::shared_ptr<crypto::Signer> raw_signer;  // undecorated, for the verify probe
  std::shared_ptr<pki::CredentialManager> credentials;
  std::shared_ptr<store::EvidenceLog> log;
  store::JournalLogBackend* journal = nullptr;  // owned through `log`
  journal::Options journal_options;
  std::shared_ptr<core::EvidenceService> evidence;
  std::unique_ptr<core::Coordinator> coordinator;
};

class Fleet {
 public:
  Fleet(const Spec& spec, std::uint64_t seed, bool traced, fs::path data_dir,
        std::uint64_t stall_ms)
      : world(seed, kRsaBits), spec_(spec), traced_(traced), data_dir_(std::move(data_dir)) {
    setup = build(stall_ms);
  }

  ~Fleet() {
    if (pump.joinable()) {
      world.network.drain();
      world.network.stop_live();
      pump.join();
    }
    world.network.set_executor(nullptr);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Status setup;
  scenario::World world;
  container::Container container;
  std::vector<std::unique_ptr<Member>> members;
  Member* server = nullptr;
  Member* ttp = nullptr;
  std::vector<Member*> clients;
  std::shared_ptr<util::ThreadPool> pool;
  std::thread pump;

 private:
  Status build(std::uint64_t stall_ms) {
    if (spec_.durable) {
      auto key = crypto::rsa_generate(world.rng(), kRsaBits);
      auto signer = std::make_shared<crypto::RsaSigner>(std::move(key));
      auto cert = world.ca().issue(PartyId("tsa:fleet"), signer->algorithm(),
                                   signer->public_key(), 0, scenario::kFarFuture);
      if (!cert) return cert.error();
      tsa_cert_ = cert.value();
      tsa_ = std::make_shared<tsa::TimestampAuthority>(PartyId("tsa:fleet"),
                                                       decorate(signer), world.clock);
    }

    auto server_member = add_member(kServer);
    if (!server_member) return server_member.error();
    server = server_member.value();
    auto ttp_member = add_member(kTtp);
    if (!ttp_member) return ttp_member.error();
    ttp = ttp_member.value();
    for (std::size_t i = 0; i < spec_.clients; ++i) {
      auto client = add_member("p" + std::to_string(i));
      if (!client) return client.error();
      clients.push_back(client.value());
    }

    container::DeploymentDescriptor descriptor;
    descriptor.non_repudiation = true;
    auto component = std::make_shared<container::Component>();
    component->bind("echo", [stall_ms](const container::Invocation& inv) -> Result<Bytes> {
      // Accounting self-test only: a wall-clock stall on the server strand.
      if (stall_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      return inv.arguments;
    });
    std::vector<std::shared_ptr<container::Interceptor>> interceptors;
    if (traced_) interceptors.push_back(std::make_shared<TimedInterceptor>());
    container.deploy(ServiceUri(std::string("svc://") + kServer + "/echo"), component,
                     descriptor, std::move(interceptors));

    const core::InvocationConfig config{.request_timeout = kRequestTimeout};
    auto server_handler = std::make_shared<core::DirectInvocationServer>(
        *server->coordinator,
        [this](container::Invocation& inv) { return container.invoke(inv); }, config);
    server->coordinator->register_handler(
        decorate(server_handler, Kind::kServer, Kind::kServerOneway));
    if (spec_.inline_ttp) {
      auto relay = std::make_shared<core::InlineTtpRelay>(
          *ttp->coordinator,
          [](const net::Address&) -> std::optional<net::Address> { return std::nullopt; },
          config);
      ttp->coordinator->register_handler(decorate(relay, Kind::kRelay, Kind::kRelayOneway));
    } else {
      auto offline = std::make_shared<core::OptimisticTtp>(*ttp->coordinator);
      ttp->coordinator->register_handler(decorate(offline, Kind::kTtp, Kind::kTtp));
    }

    pool = std::make_shared<util::ThreadPool>(kPoolWorkers);
    world.network.set_executor(pool);
    pump = std::thread([this] { world.network.run_live(); });
    return Status::ok_status();
  }

  std::shared_ptr<crypto::Signer> decorate(std::shared_ptr<crypto::Signer> signer) const {
    if (!traced_) return signer;
    return std::make_shared<TimedSigner>(std::move(signer));
  }
  std::shared_ptr<core::ProtocolHandler> decorate(std::shared_ptr<core::ProtocolHandler> h,
                                                  Kind request, Kind oneway) const {
    if (!traced_) return h;
    return std::make_shared<TimedHandler>(std::move(h), request, oneway);
  }

  Result<Member*> add_member(const std::string& name) {
    auto m = std::make_unique<Member>();
    m->id = PartyId("org:" + name);
    m->address = name;
    m->raw_signer =
        std::make_shared<crypto::RsaSigner>(crypto::rsa_generate(world.rng(), kRsaBits));
    auto cert = world.ca().issue(m->id, m->raw_signer->algorithm(),
                                 m->raw_signer->public_key(), 0, scenario::kFarFuture);
    if (!cert) return cert.error();

    m->credentials = std::make_shared<pki::CredentialManager>();
    if (auto root = m->credentials->add_trusted_root(world.ca().certificate()); !root) {
      return root.error();
    }
    m->credentials->add_certificate(cert.value());
    if (tsa_) m->credentials->add_certificate(tsa_cert_);
    world.objects()->put(store::kTypeCert, cert.value().encode());
    for (auto& other : members) {
      other->credentials->add_certificate(cert.value());
      auto other_cert = other->credentials->find(other->id);
      if (!other_cert) return other_cert.error();
      m->credentials->add_certificate(other_cert.value());
    }

    std::unique_ptr<store::LogBackend> backend;
    if (spec_.durable) {
      m->journal_options.dir = (data_dir_ / name).string();
      m->journal_options.sync = journal::SyncPolicy::kEveryRecord;
      auto opened = store::JournalLogBackend::open(m->journal_options, world.objects());
      if (!opened) return opened.error();
      m->journal = opened.value().get();
      backend = std::move(opened).take();
    } else {
      backend = std::make_unique<store::MemoryLogBackend>();
    }
    if (traced_) backend = std::make_unique<TimedLogBackend>(std::move(backend));
    m->log = std::make_shared<store::EvidenceLog>(std::move(backend), world.clock,
                                                  world.objects());
    m->evidence = std::make_shared<core::EvidenceService>(
        m->id, decorate(m->raw_signer), m->credentials, m->log,
        std::make_shared<store::StateStore>(), world.clock, members.size() + 7);
    if (tsa_) {
      std::shared_ptr<core::TimestampHook> hook =
          std::make_shared<tsa::EvidenceTimestamper>(tsa_);
      if (traced_) hook = std::make_shared<TimedTimestampHook>(std::move(hook));
      m->evidence->set_timestamp_authority(std::move(hook));
    }
    m->coordinator = std::make_unique<core::Coordinator>(m->evidence, world.network, name);
    members.push_back(std::move(m));
    return members.back().get();
  }

  const Spec& spec_;
  bool traced_;
  fs::path data_dir_;
  pki::Certificate tsa_cert_;
  std::shared_ptr<tsa::TimestampAuthority> tsa_;
};

// ------------------------------------------------------ window snapshots

struct JournalTotals {
  std::uint64_t ticket_waits = 0;
  std::uint64_t ticket_wait_ns = 0;
  bool uring_active = false;
};

JournalTotals journal_totals(Fleet& fleet) {
  JournalTotals t;
  for (auto& m : fleet.members) {
    if (m->journal == nullptr) continue;
    for (journal::Writer* w : {&m->journal->writer(), m->journal->object_writer()}) {
      if (w == nullptr) continue;
      const auto s = w->stats();
      t.ticket_waits += s.ticket_waits;
      t.ticket_wait_ns += s.ticket_wait_ns;
      t.uring_active = t.uring_active || s.uring_active;
    }
  }
  return t;
}

// Record-WAL plus object-WAL bytes; preallocated spare segments excluded.
std::uint64_t journal_bytes(Fleet& fleet) {
  std::uint64_t total = 0;
  for (auto& m : fleet.members) {
    if (m->journal == nullptr) continue;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(m->journal_options.dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      if (it->path().filename().string().find(".spare") != std::string::npos) continue;
      total += it->file_size(ec);
    }
  }
  return total;
}

struct Snapshot {
  double cpu_us = 0;
  obs::Registry::Snapshot obs;
  JournalTotals journal;
  std::uint64_t disk_bytes = 0;
  std::uint64_t net_sent = 0;
};

Snapshot take_snapshot(Fleet& fleet) {
  Snapshot s;
  s.cpu_us = process_cpu_us();
  s.obs = obs::Registry::global().snapshot();
  s.journal = journal_totals(fleet);
  s.disk_bytes = journal_bytes(fleet);
  s.net_sent = fleet.world.network.stats().sent;
  return s;
}

struct ObsDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;  // count, sum
  std::map<std::string, std::int64_t> gauge_peaks;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double hist_mean(const std::string& name) const {
    auto it = histograms.find(name);
    if (it == histograms.end() || it->second.first == 0) return 0.0;
    return it->second.second / static_cast<double>(it->second.first);
  }
  std::uint64_t hist_count(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? 0 : it->second.first;
  }
  std::int64_t gauge_peak(const std::string& name) const {
    auto it = gauge_peaks.find(name);
    return it == gauge_peaks.end() ? 0 : it->second;
  }

  std::string to_json() const {
    std::string out = "{\"counters\":{";
    const char* sep = "";
    for (const auto& [name, v] : counters) {
      out += sep + ("\"" + name + "\":" + std::to_string(v));
      sep = ",";
    }
    out += "},\"histograms\":{";
    sep = "";
    char buf[96];
    for (const auto& [name, cs] : histograms) {
      std::snprintf(buf, sizeof buf, "{\"count\":%llu,\"mean\":%.6g}",
                    static_cast<unsigned long long>(cs.first),
                    cs.first ? cs.second / static_cast<double>(cs.first) : 0.0);
      out += sep + ("\"" + name + "\":" + buf);
      sep = ",";
    }
    out += "},\"gauge_peaks\":{";
    sep = "";
    for (const auto& [name, v] : gauge_peaks) {
      out += sep + ("\"" + name + "\":" + std::to_string(v));
      sep = ",";
    }
    return out + "}}";
  }
};

ObsDelta obs_delta(const obs::Registry::Snapshot& a, const obs::Registry::Snapshot& b) {
  ObsDelta d;
  for (const auto& [name, v] : b.counters) {
    auto it = a.counters.find(name);
    d.counters[name] = v - (it == a.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : b.histograms) {
    std::uint64_t count = h.count;
    double sum = h.mean * static_cast<double>(h.count);
    if (auto it = a.histograms.find(name); it != a.histograms.end()) {
      count -= it->second.count;
      sum -= it->second.mean * static_cast<double>(it->second.count);
    }
    d.histograms[name] = {count, sum};
  }
  for (const auto& [name, g] : b.gauges) d.gauge_peaks[name] = g.max;
  return d;
}

// -------------------------------------------------------- driving a window

struct Outcome {
  std::uint64_t scheduled = 0;
  std::uint64_t start = 0;
  std::uint64_t done = 0;
  bool ok = false;
  std::size_t client = 0;
  std::string run;
};

struct WindowResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // correctness-gate misses

  std::uint64_t w0 = 0, w1 = 0;  // measured window, steady ns
  double ops = 0;                // exchanges completed inside the window
  double lat_p50_ms = 0, lat_p99_ms = 0, late_frac = 0;
  double stall_ms = 0;           // longest stretch of the window with no completion
  double service_mean_us = 0;    // injector-timed start->done, window requests
  double cpu_us_per_op = 0;
  double host_factor = 1;        // reference time per measured time, whole window
  double ref_lat_p50_ms = 0;     // the two gated figures in reference-host time
  double ref_cpu_us_per_op = 0;
  double disk_bytes_per_op = 0;
  double net_msgs_per_op = 0;
  ObsDelta obs;
  JournalTotals journal_delta;
  bool uring_active = false;
};

// Drives the open-loop timeline: warm-up, then a `seconds` window whose
// boundaries the calling thread snapshots.
WindowResult drive(Fleet& fleet, const Spec& spec, std::uint64_t seed, double seconds,
                   double warmup, bool traced, double rate) {
  WindowResult r;
  const std::size_t parties = fleet.clients.size();
  const double period_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns() + 20'000'000;
  r.w0 = t0 + static_cast<std::uint64_t>(warmup * 1e9);
  r.w1 = r.w0 + static_cast<std::uint64_t>(seconds * 1e9);
  const auto to_tp = [](std::uint64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
  };

  // One injector thread per client party, never more than nproc; with
  // fewer threads, injector j serves every party p with p % threads == j.
  const std::size_t threads =
      std::min<std::size_t>(parties, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::vector<Outcome>> outcomes(threads);
  std::vector<std::size_t> unstarted(threads, 0);
  std::vector<std::thread> injectors;
  injectors.reserve(threads);
  for (std::size_t j = 0; j < threads; ++j) {
    injectors.emplace_back([&, j] {
      for (std::size_t i = j;; ++i) {
        const std::size_t p = i % parties;
        if (p % threads != j) continue;
        const std::uint64_t scheduled =
            t0 + static_cast<std::uint64_t>(period_ns * static_cast<double>(i));
        if (scheduled >= r.w1) return;
        if (now_ns() >= r.w1 + kBacklogGraceNs) {
          ++unstarted[j];  // the generator fell too far behind: a failure
          continue;
        }
        std::this_thread::sleep_until(to_tp(scheduled));  // no-op when late

        Member& m = *fleet.clients[p];
        container::Invocation inv;
        inv.service = ServiceUri(std::string("svc://") + kServer + "/echo");
        inv.method = "echo";
        inv.arguments = payload_for(seed, i);
        inv.caller = m.id;
        Outcome o;
        o.scheduled = scheduled;
        o.client = p;
        o.start = now_ns();
        container::InvocationResult result;
        bool protocol_ok = false;
        {
          std::optional<SpanScope> root;
          if (traced) root.emplace(Kind::kClient);
          if (spec.inline_ttp) {
            core::InlineTtpInvocationClient client(
                *m.coordinator, kTtp, core::InvocationConfig{.request_timeout = kRequestTimeout});
            result = client.invoke(kServer, inv);
            protocol_ok = client.last_run_has_affidavit() &&
                          client.last_run_evidence().complete_for_client();
          } else {
            core::OptimisticInvocationClient client(
                *m.coordinator, kTtp, core::InvocationConfig{.request_timeout = kRequestTimeout});
            result = client.invoke(kServer, inv);
            protocol_ok = client.last_outcome() ==
                          core::OptimisticInvocationClient::LastOutcome::kNormal;
          }
          o.run = inv.context[container::kRunIdContextKey];
          if (root) root->set_run(run_key(o.run));
        }
        o.done = now_ns();
        o.ok = protocol_ok && result.ok() && result.payload == payload_for(seed, i);
        outcomes[j].push_back(std::move(o));
      }
    });
  }

  // The window is cut into slices of about a second; CPU is sampled at
  // every slice boundary so each slice yields its own cpu/op and p50, and
  // the reported figures are the medians over slices — a burst of host
  // noise spoils a slice, not the run.
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds)));
  const auto slice_start = [&](std::size_t j) {
    return r.w0 + (r.w1 - r.w0) * j / slices;
  };
  std::vector<double> cpu_at(slices + 1, 0.0);
  std::this_thread::sleep_until(to_tp(r.w0));
  HostSpeed host;
  cpu_at[0] = process_cpu_us();
  for (const auto& [name, g] : obs::Registry::global().snapshot().gauges) {
    obs::Registry::global().gauge(name).reset_max();
  }
  const Snapshot a = take_snapshot(fleet);
  for (std::size_t j = 1; j < slices; ++j) {
    std::this_thread::sleep_until(to_tp(slice_start(j)));
    cpu_at[j] = process_cpu_us();
  }
  std::this_thread::sleep_until(to_tp(r.w1));
  cpu_at[slices] = process_cpu_us();
  host.stop();
  const Snapshot b = take_snapshot(fleet);
  for (auto& t : injectors) t.join();
  fleet.world.network.drain();

  r.obs = obs_delta(a.obs, b.obs);
  r.journal_delta.ticket_waits = b.journal.ticket_waits - a.journal.ticket_waits;
  r.journal_delta.ticket_wait_ns = b.journal.ticket_wait_ns - a.journal.ticket_wait_ns;
  r.uring_active = b.journal.uring_active;

  const auto slice_of = [&](std::uint64_t t) {
    return static_cast<std::size_t>((t - r.w0) * slices / (r.w1 - r.w0));
  };
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> slice_latency_ms(slices);
  std::vector<double> slice_ops(slices, 0.0);
  std::vector<std::uint64_t> completions{r.w0, r.w1};
  double service_ns = 0;
  std::size_t window_requests = 0, late = 0;
  for (const auto& per_client : outcomes) {
    for (const auto& o : per_client) {
      ++r.attempted;
      if (!o.ok) ++r.failed;
      if (o.ok && o.done >= r.w0 && o.done < r.w1) {
        r.ops += 1;
        slice_ops[slice_of(o.done)] += 1;
        completions.push_back(o.done);
      }
      if (o.scheduled < r.w0 || o.scheduled >= r.w1) continue;
      ++window_requests;
      const double ms = static_cast<double>(o.done - o.scheduled) / 1e6;
      latency_ms.push_back(ms);
      slice_latency_ms[slice_of(o.scheduled)].push_back(ms);
      service_ns += static_cast<double>(o.done - o.start);
      if (o.start > o.scheduled + 1'000'000) ++late;  // started >1 ms after its slot
    }
  }
  for (std::size_t n : unstarted) {
    r.attempted += n;
    r.failed += n;
  }
  std::vector<double> slice_p50, slice_cpu, ref_p50, ref_cpu;
  for (std::size_t j = 0; j < slices; ++j) {
    const std::uint64_t from = slice_start(j), to = slice_start(j + 1);
    const double factor = host.factor(from, to);
    if (!slice_latency_ms[j].empty()) {
      slice_p50.push_back(median_of(slice_latency_ms[j]));
      ref_p50.push_back(slice_p50.back() * factor);
    }
    if (slice_ops[j] > 0) {
      const double cpu = cpu_at[j + 1] - cpu_at[j] - host.cpu_us(from, to);
      slice_cpu.push_back(cpu / slice_ops[j]);
      ref_cpu.push_back(slice_cpu.back() * factor);
    }
  }
  r.host_factor = host.factor(r.w0, r.w1);
  r.ref_lat_p50_ms = median_of(ref_p50);
  r.ref_cpu_us_per_op = median_of(ref_cpu);
  if (window_requests > 0) {
    r.lat_p50_ms = median_of(slice_p50);
    r.lat_p99_ms = percentile_of(latency_ms, 99.0);
    r.late_frac = static_cast<double>(late) / static_cast<double>(window_requests);
    r.service_mean_us = service_ns / static_cast<double>(window_requests) / 1e3;
  }
  std::sort(completions.begin(), completions.end());
  for (std::size_t i = 1; i < completions.size(); ++i) {
    r.stall_ms =
        std::max(r.stall_ms, static_cast<double>(completions[i] - completions[i - 1]) / 1e6);
  }
  if (r.ops > 0) {
    r.cpu_us_per_op = median_of(slice_cpu);
    r.disk_bytes_per_op = static_cast<double>(b.disk_bytes - a.disk_bytes) / r.ops;
    r.net_msgs_per_op = static_cast<double>(b.net_sent - a.net_sent) / r.ops;
  } else {
    r.problems.push_back("no exchange completed inside the measured window");
  }

  // --- correctness gate (fleet quiescent: injectors joined, network drained)
  const auto check_party = [&](const Member& m) {
    if (auto chain = m.log->verify_chain(); !chain) {
      r.problems.push_back(m.address + ": chain: " + chain.error().code);
    }
    if (auto backend = m.log->backend_status(); !backend) {
      r.problems.push_back(m.address + ": backend: " + backend.error().code);
    }
  };
  for (const auto& m : fleet.members) check_party(*m);

  using core::EvidenceType;
  const auto kinds_by_run = [](const Member& m) {
    std::unordered_map<std::string, std::set<std::string>> out;
    for (const auto& rec : m.log->records()) out[rec.run.str()].insert(rec.kind);
    return out;
  };
  const auto server_kinds = kinds_by_run(*fleet.server);
  std::vector<std::unordered_map<std::string, std::set<std::string>>> client_kinds;
  for (Member* c : fleet.clients) client_kinds.push_back(kinds_by_run(*c));
  const auto has = [](const auto& by_run, const std::string& run, EvidenceType t) {
    auto it = by_run.find(run);
    return it != by_run.end() && it->second.contains(core::log_kind(t));
  };
  std::size_t evidence_misses = 0, completed = 0;
  for (const auto& per_client : outcomes) {
    for (const auto& o : per_client) {
      if (!o.ok) continue;
      ++completed;
      const bool client_ok = has(client_kinds[o.client], o.run, EvidenceType::kNrrRequest) &&
                             has(client_kinds[o.client], o.run, EvidenceType::kNroResponse);
      const bool server_ok = has(server_kinds, o.run, EvidenceType::kNroRequest) &&
                             has(server_kinds, o.run, EvidenceType::kNrrResponse);
      if (!client_ok || !server_ok) ++evidence_misses;
    }
  }
  if (evidence_misses > 0) {
    r.failed += evidence_misses;
    r.problems.push_back(std::to_string(evidence_misses) +
                         " completed exchanges lack their evidence tokens");
  }
  if (spec.inline_ttp) {
    std::size_t affidavits = 0;
    const std::string kind = core::log_kind(EvidenceType::kAffidavit);
    for (const auto& rec : fleet.ttp->log->records()) affidavits += rec.kind == kind;
    if (affidavits != completed) {
      r.problems.push_back("relay log holds " + std::to_string(affidavits) +
                           " affidavits for " + std::to_string(completed) + " runs");
    }
  }
  return r;
}

struct JournalTail {
  journal::Options options;
  std::string party;
  std::size_t records = 0;
  crypto::Digest tail{};
};

std::vector<JournalTail> journal_tails(Fleet& fleet) {
  std::vector<JournalTail> out;
  for (auto& m : fleet.members) {
    if (m->journal == nullptr) continue;
    JournalTail t{m->journal_options, m->address, m->log->size(), {}};
    if (t.records > 0) t.tail = m->log->records().back().chain;
    out.push_back(std::move(t));
  }
  return out;
}

// "Evidence survives a crash": with the fleet gone (every journal closed),
// reopening recovers the same record count and tail chain digest.
void check_reopen(const std::vector<JournalTail>& tails, WindowResult& r) {
  for (const auto& t : tails) {
    auto objects = std::make_shared<store::ObjectStore>();
    auto backend = store::JournalLogBackend::open(t.options, objects);
    if (!backend) {
      r.problems.push_back(t.party + ": reopen: " + backend.error().code);
      continue;
    }
    store::EvidenceLog log(std::move(backend).take(), std::make_shared<SimClock>(0), objects);
    const bool same = log.size() == t.records &&
                      (t.records == 0 || log.records().back().chain == t.tail);
    if (!same) {
      r.problems.push_back(t.party + ": reopened journal holds " + std::to_string(log.size()) +
                           " records (expected " + std::to_string(t.records) +
                           ") or a different tail digest");
    }
    if (auto chain = log.verify_chain(); !chain) {
      r.problems.push_back(t.party + ": reopened chain: " + chain.error().code);
    }
  }
}

// ----------------------------------------------------------- span folding

struct Fold {
  std::size_t trees = 0;                    // exchanges whose root started in the window
  double root_ns = 0;                       // their summed durations
  std::array<double, kKinds> tree_self_ns{};   // blocking-path self time per kind
  std::array<double, kKinds> tree_count{};     // blocking-path spans per kind
  std::array<double, kKinds> count{};          // all spans started in the window
  std::array<double, kKinds> total_ns{};
  std::array<double, kKinds> self_ns{};
  double min_self_ns = 0;                   // < 0 would mean overlapping children
  std::size_t orphans = 0;                  // request steps with no waiting caller
};

// A layer's self time is its span minus the spans it directly encloses.
// Same-thread nesting comes from the per-thread open-span stack. A request
// step served on another thread is enclosed by the innermost span of the
// same run (client invocation or relay step) that waits across it; one-way
// steps wait for nobody and stay off the blocking path.
Fold fold_spans(const std::vector<std::shared_ptr<ThreadSpans>>& threads, std::uint64_t w0,
                std::uint64_t w1) {
  // Flatten: span g lives on thread owner[g]; same-thread parents become
  // flat indices too.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<const Span*> all;
  std::vector<std::size_t> owner, up;  // up: enclosing span, same thread or linked
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const std::size_t base = all.size();
    for (const Span& s : threads[t]->spans) {
      all.push_back(&s);
      owner.push_back(t);
      up.push_back(s.parent >= 0 ? base + static_cast<std::size_t>(s.parent) : kNone);
    }
  }
  const std::size_t n = all.size();
  const auto dur = [&](std::size_t g) { return static_cast<double>(all[g]->end - all[g]->start); };
  const auto in_window = [&](std::size_t g) { return all[g]->start >= w0 && all[g]->start < w1; };

  Fold f;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> waiters;  // run -> top-level spans
  for (std::size_t g = 0; g < n; ++g) {
    const Kind k = all[g]->kind;
    if (up[g] == kNone && all[g]->run != 0 && (k == Kind::kClient || linked_kind(k))) {
      waiters[all[g]->run].push_back(g);
    }
  }
  for (const auto& [run, group] : waiters) {
    for (std::size_t h : group) {
      if (!linked_kind(all[h]->kind)) continue;
      std::size_t best = kNone;
      for (std::size_t c : group) {
        if (owner[c] == owner[h] || all[c]->start > all[h]->start || all[c]->end < all[h]->end) {
          continue;
        }
        if (best == kNone || all[c]->start > all[best]->start) best = c;
      }
      if (best == kNone && in_window(h)) ++f.orphans;
      up[h] = best;
    }
  }

  std::vector<double> child_ns(n, 0.0);
  for (std::size_t g = 0; g < n; ++g) {
    if (up[g] != kNone) child_ns[up[g]] += dur(g);
  }
  // Root (client span) of every span; kNone when off the blocking path.
  std::vector<std::size_t> root(n, kNone);
  std::vector<char> resolved(n, 0);
  std::function<std::size_t(std::size_t)> find_root = [&](std::size_t g) {
    if (!resolved[g]) {
      root[g] = up[g] != kNone ? find_root(up[g])
                : all[g]->kind == Kind::kClient ? g
                                                : kNone;
      resolved[g] = 1;
    }
    return root[g];
  };

  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t k = idx(all[g]->kind);
    const double self = dur(g) - child_ns[g];
    if (in_window(g)) {
      f.count[k] += 1;
      f.total_ns[k] += dur(g);
      f.self_ns[k] += self;
    }
    const std::size_t r = find_root(g);
    if (r == kNone || !in_window(r)) continue;
    f.tree_self_ns[k] += self;
    f.tree_count[k] += 1;
    f.min_self_ns = std::min(f.min_self_ns, self);
    if (r == g) {
      ++f.trees;
      f.root_ns += dur(g);
    }
  }
  return f;
}

void write_spans(const std::vector<std::shared_ptr<ThreadSpans>>& threads, const fs::path& path,
                 std::uint64_t w0) {
  std::ofstream out(path);
  out << "thread\tindex\tkind\tstart_ns\tend_ns\tparent\trun\n";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const auto& spans = threads[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << kKindNames[idx(s.kind)] << '\t'
          << static_cast<std::int64_t>(s.start - w0) << '\t'
          << static_cast<std::int64_t>(s.end - w0) << '\t' << s.parent << '\t' << std::hex
          << s.run << std::dec << '\n';
    }
  }
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double verify_probe_us(const Member& m) {
  const Bytes msg = payload_for(0x5eed, 0);
  auto sig = m.raw_signer->sign(msg);
  if (!sig) return 0.0;
  const Bytes key = m.raw_signer->public_key();
  crypto::VerifierCache cache;
  constexpr int kBatch = 100;
  std::vector<double> per_call;
  bool all_ok = true;
  for (int rep = 0; rep < 16; ++rep) {
    const std::uint64_t t = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      all_ok = cache.verify(crypto::SigAlgorithm::kRsa, key, msg, sig.value()) && all_ok;
    }
    if (rep > 0) per_call.push_back(static_cast<double>(now_ns() - t) / kBatch / 1e3);
  }
  return all_ok ? median_of(per_call) : 0.0;
}

struct TracedReport {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::vector<std::string> table;
};

TracedReport traced_report(const Spec& spec, const WindowResult& w, const Fold& f,
                           double untraced_ref_cpu_us_per_op, double probe_us) {
  TracedReport out;
  const double ops = std::max(w.ops, 1.0);
  const double trees = std::max<double>(static_cast<double>(f.trees), 1.0);
  const auto mean_us = [&](Kind k) {
    const std::size_t i = idx(k);
    return f.count[i] > 0 ? f.total_ns[i] / f.count[i] / 1e3 : 0.0;
  };
  const auto per_op = [&](Kind k) { return f.count[idx(k)] / ops; };
  const auto tree_us = [&](Kind k) { return f.tree_self_ns[idx(k)] / trees / 1e3; };
  const ObsDelta& o = w.obs;

  const double verifies =
      static_cast<double>(o.counter("crypto.verifier_cache_hits") +
                          o.counter("crypto.verifier_cache_misses")) / ops;
  const double memo_hits = static_cast<double>(o.counter("pki.memo_hits"));
  const double memo_total = memo_hits + static_cast<double>(o.counter("pki.object_verifies"));
  const double puts = static_cast<double>(o.counter("store.object_puts"));
  const double fsync_us = o.hist_mean("journal.fsync_ns") / 1e3;
  const double blocking_waits = f.tree_count[idx(Kind::kSync)] / trees;
  const double sign_us = mean_us(Kind::kSign);
  const double floor = per_op(Kind::kSign) * sign_us + verifies * probe_us +
                       (spec.durable ? blocking_waits * fsync_us : 0.0);
  const double unattributed = tree_us(Kind::kClient);
  const std::size_t relay = idx(Kind::kRelay);

  auto& m = out.metrics;
  m.push_back({"crypto.sign_us", sign_us, "us"});
  m.push_back({"crypto.signs_per_op", per_op(Kind::kSign), "count"});
  m.push_back({"crypto.verifies_per_op", verifies, "count"});
  m.push_back({"crypto.verify_probe_us", probe_us, "us"});
  m.push_back({"pki.memo_hit_frac", memo_total > 0 ? memo_hits / memo_total : 0.0, "frac"});
  m.push_back({"tsa.countersign_us", mean_us(Kind::kCountersign), "us"});
  m.push_back({"tsa.countersigns_per_op", per_op(Kind::kCountersign), "count"});
  m.push_back({"store.append_us", mean_us(Kind::kAppend), "us"});
  m.push_back({"store.appends_per_op", per_op(Kind::kAppend), "count"});
  m.push_back({"store.dedup_frac",
               puts > 0 ? static_cast<double>(o.counter("store.dedup_hits")) / puts : 0.0,
               "frac"});
  m.push_back({"disk_bytes_per_op", w.disk_bytes_per_op, "B"});
  m.push_back({"journal.fsync_us", fsync_us, "us"});
  m.push_back({"journal.syncs_per_op", static_cast<double>(o.counter("journal.syncs")) / ops,
               "count"});
  m.push_back({"journal.blocking_waits_per_op", blocking_waits, "count"});
  m.push_back({"journal.ticket_wait_us",
               w.journal_delta.ticket_waits
                   ? static_cast<double>(w.journal_delta.ticket_wait_ns) /
                         static_cast<double>(w.journal_delta.ticket_waits) / 1e3
                   : 0.0,
               "us"});
  m.push_back({"journal.batch_records_mean", o.hist_mean("journal.batch_records"), "count"});
  m.push_back({"journal.uring_active", w.uring_active ? 1.0 : 0.0, "count"});
  m.push_back({"core.client_invoke_us", mean_us(Kind::kClient), "us"});
  m.push_back({"core.server_handler_us", mean_us(Kind::kServer), "us"});
  m.push_back({"core.relay_handler_us", mean_us(Kind::kRelay), "us"});
  m.push_back({"core.relay_self_us",
               f.count[relay] > 0 ? f.self_ns[relay] / f.count[relay] / 1e3 : 0.0, "us"});
  m.push_back({"container.invoke_us", mean_us(Kind::kContainer), "us"});
  m.push_back({"net.delivery_wait_us", o.hist_mean("net.delivery_wait_ns") / 1e3, "us"});
  m.push_back({"net.msgs_per_op", w.net_msgs_per_op, "count"});
  m.push_back({"net.yields_per_op", static_cast<double>(o.counter("net.yields")) / ops, "count"});
  m.push_back({"pool.queue_peak", static_cast<double>(o.gauge_peak("pool.queue_depth")), "count"});
  m.push_back({"pool.active_peak", static_cast<double>(o.gauge_peak("pool.active_workers")),
               "count"});
  m.push_back({"scenario.lat_p99_ms", w.lat_p99_ms, "ms"});
  m.push_back({"scenario.late_frac", w.late_frac, "frac"});
  m.push_back({"floor_us_per_op", floor, "us"});
  m.push_back({"unattributed_us_per_op", unattributed, "us"});
  const double overhead = untraced_ref_cpu_us_per_op > 0
                              ? w.ref_cpu_us_per_op / untraced_ref_cpu_us_per_op - 1.0
                              : 0.0;
  m.push_back({"trace.overhead_frac", overhead, "frac"});
  m.push_back({"host.speed_factor", w.host_factor, "ratio"});
  for (Kind k : {Kind::kSign, Kind::kCountersign, Kind::kAppend, Kind::kSync, Kind::kServer,
                 Kind::kRelay, Kind::kContainer}) {
    m.push_back({std::string("self.") + kKindNames[idx(k)] + "_us_per_op", tree_us(k), "us"});
  }

  // Where the time goes: blocking-path self time per exchange. The rows
  // plus the client's own remainder must add up to the service time the
  // injectors measured independently around each invocation.
  char line[160];
  double attributed = 0;
  out.table.push_back("where the time goes (blocking path, us per exchange, " +
                      std::to_string(f.trees) + " exchanges):");
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (k == idx(Kind::kClient) || f.tree_count[k] == 0) continue;
    const double us = f.tree_self_ns[k] / trees / 1e3;
    attributed += us;
    std::snprintf(line, sizeof line, "  %-22s %10.2f  (%.2f spans/op)", kKindNames[k], us,
                  f.tree_count[k] / trees);
    out.table.push_back(line);
  }
  std::snprintf(line, sizeof line, "  %-22s %10.2f", "unattributed", unattributed);
  out.table.push_back(line);
  const double service_us = f.root_ns / trees / 1e3;
  std::snprintf(line, sizeof line,
                "  %-22s %10.2f  (injector-timed %.2f; floor %.2f; cpu/op %.2f)",
                "= service time", attributed + unattributed, w.service_mean_us, floor,
                w.cpu_us_per_op);
  out.table.push_back(line);

  if (f.trees == 0) out.problems.push_back("traced window holds no exchange");
  const double total = attributed + unattributed;
  if (std::abs(total - service_us) > 1e-6 * std::max(service_us, 1.0) ||
      std::abs(total - w.service_mean_us) > 0.02 * w.service_mean_us + 2.0) {
    out.problems.push_back("accounting: rows + unattributed = " + std::to_string(total) +
                           " us, service time " + std::to_string(w.service_mean_us) + " us");
  }
  if (f.min_self_ns < -1000.0) {
    out.problems.push_back("accounting: overlapping child spans (self " +
                           std::to_string(f.min_self_ns) + " ns)");
  }
  if (f.orphans > 0) {
    out.problems.push_back("accounting: " + std::to_string(f.orphans) +
                           " request steps with no waiting caller");
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& m : metrics) {
    out += sep + ("\"" + m.name + "\": {\"value\": " + json_number(m.value) +
                  ", \"unit\": \"" + m.unit + "\"}");
    sep = ", ";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  fs::path out_dir = ".bench_build/perfbench/out";
  // Sizing and reproduction overrides (NOTES.md); 0 keeps the workload's own.
  double rate = 0;
  std::size_t clients = 0;
};

struct FleetRun {
  WindowResult window;
  double setup_s = 0;  // reference-host time, median over set-ups
  std::vector<double> raw_setup_s;
  double probe_us = 0;
  std::vector<std::shared_ptr<ThreadSpans>> spans;
};

// Times `setups` throwaway fleet set-ups, then builds the measured fleet
// from the workload seed, drives it, gates it and tears it down. The timed
// set-ups use fixed key seeds, so set-up time moves with the code rather
// than with the seed's prime search.
FleetRun run_fleet(const Spec& spec, const Args& args, bool traced, std::size_t setups,
                   double seconds, double warmup, double rate, std::uint64_t stall_ms,
                   const fs::path& data_root) {
  FleetRun out;
  const auto failed_setup = [&](const Fleet& fleet) {
    if (fleet.setup) return false;
    out.window.problems.push_back("fleet setup: " + fleet.setup.error().code + " " +
                                  fleet.setup.error().detail);
    return true;
  };
  // Set-up is one thread's work, so its reference chunk is timed on that
  // same thread, just before and after each set-up.
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < setups; ++k) {
    std::vector<double> chunk;
    for (int i = 0; i < 3; ++i) chunk.push_back(HostSpeed::chunk_ns());
    const std::uint64_t t = now_ns();
    Fleet fleet(spec, kSetupSeedBase + k, false, data_root / ("setup" + std::to_string(k)), 0);
    const double span_s = static_cast<double>(now_ns() - t) / 1e9;
    if (failed_setup(fleet)) return out;
    for (int i = 0; i < 3; ++i) chunk.push_back(HostSpeed::chunk_ns());
    out.raw_setup_s.push_back(span_s);
    setup_s.push_back(span_s * kRefChunkNs / median_of(chunk));
  }
  auto fleet = std::make_unique<Fleet>(spec, args.seed, traced, data_root / "measured", stall_ms);
  if (failed_setup(*fleet)) return out;
  out.setup_s = median_of(setup_s);
  if (traced) {
    out.probe_us = verify_probe_us(*fleet->server);
    SpanStore::instance().clear();
  }
  out.window = drive(*fleet, spec, args.seed, seconds, warmup, traced, rate);
  const auto tails = journal_tails(*fleet);
  fleet.reset();  // joins the pump and pool, closes every journal
  check_reopen(tails, out.window);
  if (traced) out.spans = SpanStore::instance().threads();
  return out;
}

const char* sync_engine(const Spec& spec, const WindowResult& w) {
  if (!spec.durable) return "none";
  return w.uring_active ? "io_uring" : "fdatasync-worker";
}

int run_workload(const Spec& spec, const Args& args) {
  const fs::path data_root = args.out_dir / ("data-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(data_root, ec);
  fs::create_directories(args.out_dir, ec);

  std::printf("# fxbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u rate=%g "
              "clients=%zu pool=%zu rsa_bits=%zu payload=%zu\n",
              spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(), spec.rate, spec.clients,
              kPoolWorkers, kRsaBits, kPayloadBytes);

  // The untraced window: end-to-end metrics, and the overhead baseline of
  // a traced run.
  FleetRun plain = run_fleet(spec, args, false, args.trace ? 0 : kSetupRepeats, args.seconds,
                             kWarmupSeconds, spec.rate, 0, data_root / "plain");
  const WindowResult& pw = plain.window;
  std::printf("# untraced: sync_engine=%s attempted=%zu failed=%zu fail_frac=%.6f "
              "lat_p50_ms=%.4f lat_p99_ms=%.4f late_frac=%.4f stall_ms=%.1f "
              "achieved_rate=%.1f cpu_us_per_op=%.2f disk_bytes_per_op=%.1f\n",
              sync_engine(spec, pw), pw.attempted, pw.failed,
              pw.attempted ? static_cast<double>(pw.failed) / static_cast<double>(pw.attempted)
                           : 0.0,
              pw.lat_p50_ms, pw.lat_p99_ms, pw.late_frac, pw.stall_ms, pw.ops / args.seconds,
              pw.cpu_us_per_op, pw.disk_bytes_per_op);
  std::printf("# reference-host time: speed_factor=%.4f lat_p50_ms=%.4f cpu_us_per_op=%.2f",
              pw.host_factor, pw.ref_lat_p50_ms, pw.ref_cpu_us_per_op);
  if (!plain.raw_setup_s.empty()) {
    std::printf(" setup_s=%.4f (measured median %.4f)", plain.setup_s,
                median_of(plain.raw_setup_s));
  }
  std::printf("\n");

  std::vector<std::string> problems = pw.problems;
  std::size_t attempted = pw.attempted;
  std::size_t failed = pw.failed + pw.problems.size();
  std::vector<Metric> metrics;

  if (!args.trace) {
    metrics = {{"lat_p50_ms", pw.ref_lat_p50_ms, "ms"},
               {"cpu_us_per_op", pw.ref_cpu_us_per_op, "us"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"setup_s", plain.setup_s, "s"}};
  } else {
    FleetRun traced = run_fleet(spec, args, true, 0, args.seconds, kWarmupSeconds, spec.rate, 0,
                                data_root / "traced");
    const WindowResult& tw = traced.window;
    problems.insert(problems.end(), tw.problems.begin(), tw.problems.end());
    attempted += tw.attempted;
    failed += tw.failed + tw.problems.size();
    const Fold fold = fold_spans(traced.spans, tw.w0, tw.w1);
    TracedReport report = traced_report(spec, tw, fold, pw.ref_cpu_us_per_op, traced.probe_us);
    problems.insert(problems.end(), report.problems.begin(), report.problems.end());
    for (const auto& line : report.table) std::printf("# %s\n", line.c_str());
    std::printf("# obs delta (traced window): %s\n", tw.obs.to_json().c_str());
    write_spans(traced.spans, args.out_dir / (std::string("spans-") + spec.name + ".tsv"),
                tw.w0);
    SpanStore::instance().clear();
    metrics = std::move(report.metrics);
  }
  fs::remove_all(data_root, ec);

  for (const auto& p : problems) std::printf("# PROBLEM: %s\n", p.c_str());
  print_result(problems.empty(), attempted, failed, metrics);
  return 0;
}

// Checks of the benchmark's own accounting: a wall-clock stall injected
// into the echo handler must show up in the CO-safe latency (well above
// the traced service time) and land inside the server handler's span.
int run_self_test(const Args& args) {
  const Spec& spec = kSpecs[0];
  constexpr std::uint64_t kStallMs = 25;
  const fs::path data_root = args.out_dir / ("selftest-" + std::to_string(::getpid()));
  FleetRun run = run_fleet(spec, args, true, 0, 2.0, 0.3, 60.0, kStallMs, data_root);
  const WindowResult& w = run.window;
  const Fold fold = fold_spans(run.spans, w.w0, w.w1);
  TracedReport report = traced_report(spec, w, fold, 0.0, run.probe_us);
  SpanStore::instance().clear();
  std::error_code ec;
  fs::remove_all(data_root, ec);
  for (const auto& line : report.table) std::printf("# %s\n", line.c_str());

  std::map<std::string, double> m;
  for (const auto& metric : report.metrics) m[metric.name] = metric.value;
  std::vector<std::string> problems = w.problems;
  problems.insert(problems.end(), report.problems.begin(), report.problems.end());
  const double stall_us = static_cast<double>(kStallMs) * 1e3;
  std::printf("# self-test: lat_p50_ms=%.3f client_invoke_us=%.1f server_handler_us=%.1f "
              "self.container_us_per_op=%.1f stall_us=%.0f\n",
              w.lat_p50_ms, m["core.client_invoke_us"], m["core.server_handler_us"],
              m["self.container.invoke_us_per_op"], stall_us);
  if (w.lat_p50_ms * 1e3 < 3.0 * m["core.client_invoke_us"]) {
    problems.push_back("stall did not raise lat_p50_ms well above core.client_invoke_us");
  }
  if (m["core.server_handler_us"] < 0.9 * stall_us) {
    problems.push_back("stall did not land in core.server_handler_us");
  }
  if (m["self.container.invoke_us_per_op"] < 0.9 * stall_us) {
    problems.push_back("stall did not land in the component's self time");
  }
  for (const auto& p : problems) std::printf("# PROBLEM: %s\n", p.c_str());
  std::printf("# self-test %s\n", problems.empty() ? "passed" : "FAILED");
  return problems.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: fxbench --workload <fx_direct|fx_durable|fx_inline_ttp> --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--rate R] [--clients N]\n"
               "       fxbench --self-test [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--rate") {
        args.rate = std::stod(value);
      } else if (flag == "--clients") {
        args.clients = std::stoul(value);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.self_test) return run_self_test(args);
  if (!(args.seconds > 0)) return usage();
  for (Spec spec : kSpecs) {
    if (args.workload != spec.name) continue;
    if (args.rate > 0) spec.rate = args.rate;
    if (args.clients > 0) spec.clients = args.clients;
    return run_workload(spec, args);
  }
  return usage();
}
