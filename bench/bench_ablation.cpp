// Ablations over the design choices DESIGN.md calls out:
//  A1 signature scheme in the exchange: RSA-512 / RSA-1024 / forward-secure
//     Merkle (hash-based) — the flexibility §3.1 claims for interceptors.
//  A2 TSA countersigning on/off (the [25]-motivated trade-off).
//  A3 reliable-channel retry interval under loss (latency vs messages).
//  A4 evidence-log backend: memory vs per-record-durable journal (persistence
//     cost, assumption 3).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "core/nr_interceptor.hpp"
#include "store/journal_backend.hpp"
#include "tests/common.hpp"
#include "tsa/timestamp.hpp"

namespace {

using namespace nonrep;
using namespace nonrep::core;
using container::DeploymentDescriptor;
using container::Invocation;

std::shared_ptr<container::Component> make_echo() {
  auto c = std::make_shared<container::Component>();
  c->bind("echo", [](const Invocation& inv) -> Result<Bytes> { return inv.arguments; });
  return c;
}

// A custom rig so parties can use non-default signers.
struct AblationParty {
  PartyId id;
  std::shared_ptr<core::EvidenceService> evidence;
  std::unique_ptr<core::Coordinator> coordinator;
};

struct AblationRig {
  enum class Scheme { kRsa512, kRsa1024, kMerkle };

  explicit AblationRig(Scheme scheme, bool with_tsa = false,
                       bool journal_log = false)
      : rng(to_bytes("ablation")),
        clock(std::make_shared<SimClock>(0)),
        network(clock, 5),
        ca_signer(std::make_shared<crypto::RsaSigner>(crypto::rsa_generate(rng, 512))),
        ca(PartyId("ca:root"), ca_signer, 0, nonrep::test::kFarFuture) {
    client = make_party("client", scheme, journal_log);
    server = make_party("server", scheme, journal_log);
    cross_register();
    if (with_tsa) {
      tsa_signer = std::make_shared<crypto::RsaSigner>(crypto::rsa_generate(rng, 512));
      auto tsa_cert = ca.issue(PartyId("tsa:x"), tsa_signer->algorithm(),
                               tsa_signer->public_key(), 0, nonrep::test::kFarFuture)
                          .take();
      client->evidence->credentials().add_certificate(tsa_cert);
      server->evidence->credentials().add_certificate(tsa_cert);
      authority = std::make_shared<tsa::TimestampAuthority>(PartyId("tsa:x"), tsa_signer,
                                                            clock);
      client->evidence->set_timestamp_authority(
          std::make_shared<tsa::EvidenceTimestamper>(authority));
      server->evidence->set_timestamp_authority(
          std::make_shared<tsa::EvidenceTimestamper>(authority));
    }
    cont.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
    nr = install_nr_server(*server->coordinator, cont);
  }

  std::shared_ptr<crypto::Signer> make_signer(Scheme scheme) {
    switch (scheme) {
      case Scheme::kRsa512:
        return std::make_shared<crypto::RsaSigner>(crypto::rsa_generate(rng, 512));
      case Scheme::kRsa1024:
        return std::make_shared<crypto::RsaSigner>(crypto::rsa_generate(rng, 1024));
      case Scheme::kMerkle:
        // height 12: 4096 one-time signatures per key.
        return crypto::MerkleSchemeSigner::create(rng, 12).take();
    }
    return nullptr;
  }

  std::unique_ptr<AblationParty> make_party(const std::string& name, Scheme scheme,
                                            bool journal_log) {
    auto p = std::make_unique<AblationParty>();
    p->id = PartyId("org:" + name);
    auto signer = make_signer(scheme);
    signers[name] = signer;
    auto credentials = std::make_shared<pki::CredentialManager>();
    (void)credentials->add_trusted_root(ca.certificate());
    credentials->add_certificate(ca.issue(p->id, signer->algorithm(), signer->public_key(),
                                          0, nonrep::test::kFarFuture)
                                     .take());
    std::unique_ptr<store::LogBackend> backend;
    if (journal_log) {
      const std::string dir =
          (std::filesystem::temp_directory_path() / ("nonrep_ablation_" + name)).string();
      std::filesystem::remove_all(dir);
      backend =
          store::JournalLogBackend::open({.dir = dir, .sync = journal::SyncPolicy::kEveryRecord})
              .take();
    } else {
      backend = std::make_unique<store::MemoryLogBackend>();
    }
    p->evidence = std::make_shared<core::EvidenceService>(
        p->id, signer, credentials,
        std::make_shared<store::EvidenceLog>(std::move(backend), clock),
        std::make_shared<store::StateStore>(), clock, 1);
    p->coordinator = std::make_unique<core::Coordinator>(p->evidence, network, name);
    return p;
  }

  void cross_register() {
    auto cc = client->evidence->credentials().find(client->id);
    auto sc = server->evidence->credentials().find(server->id);
    client->evidence->credentials().add_certificate(sc.value());
    server->evidence->credentials().add_certificate(cc.value());
  }

  void run_one(benchmark::State& state, DirectInvocationClient& handler) {
    Invocation inv;
    inv.service = ServiceUri("svc://server/echo");
    inv.method = "echo";
    inv.arguments = Bytes(1024, 0x42);
    inv.caller = client->id;
    auto result = handler.invoke("server", inv);
    if (!result.ok()) state.SkipWithError("invocation failed");
    network.run();
  }

  crypto::Drbg rng;
  std::shared_ptr<SimClock> clock;
  net::SimNetwork network;
  std::shared_ptr<crypto::RsaSigner> ca_signer;
  pki::CertificateAuthority ca;
  std::map<std::string, std::shared_ptr<crypto::Signer>> signers;
  std::unique_ptr<AblationParty> client;
  std::unique_ptr<AblationParty> server;
  std::shared_ptr<crypto::RsaSigner> tsa_signer;
  std::shared_ptr<tsa::TimestampAuthority> authority;
  container::Container cont;
  std::shared_ptr<DirectInvocationServer> nr;
};

void BM_Ablation_Scheme(benchmark::State& state) {
  const auto scheme = static_cast<AblationRig::Scheme>(state.range(0));
  AblationRig rig(scheme);
  DirectInvocationClient handler(*rig.client->coordinator);
  std::uint64_t bytes = 0, n = 0;
  for (auto _ : state) {
    rig.network.reset_stats();
    rig.run_one(state, handler);
    bytes += rig.network.stats().bytes_sent;
    ++n;
  }
  state.counters["wire_bytes/op"] = static_cast<double>(bytes) / static_cast<double>(n);
}
BENCHMARK(BM_Ablation_Scheme)
    ->Arg(0)  // RSA-512
    ->Arg(1)  // RSA-1024
    ->Arg(2)  // Merkle hash-based (forward secure)
    ->Unit(benchmark::kMicrosecond);

void BM_Ablation_Tsa(benchmark::State& state) {
  AblationRig rig(AblationRig::Scheme::kRsa512, /*with_tsa=*/state.range(0) == 1);
  DirectInvocationClient handler(*rig.client->coordinator);
  const std::uint64_t log0 = rig.client->evidence->log().payload_bytes();
  std::uint64_t n = 0;
  for (auto _ : state) {
    rig.run_one(state, handler);
    ++n;
  }
  state.counters["tsa"] = static_cast<double>(state.range(0));
  state.counters["client_evidence_B/op"] =
      static_cast<double>(rig.client->evidence->log().payload_bytes() - log0) /
      static_cast<double>(n);
}
BENCHMARK(BM_Ablation_Tsa)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Ablation_RetryInterval(benchmark::State& state) {
  // Shorter retries recover faster from loss but send more duplicates.
  nonrep::test::TestWorld world(9);
  auto& client = world.add_party(
      "client", net::ReliableConfig{.retry_interval = static_cast<TimeMs>(state.range(0)),
                                    .max_retries = 200});
  auto& server = world.add_party(
      "server", net::ReliableConfig{.retry_interval = static_cast<TimeMs>(state.range(0)),
                                    .max_retries = 200});
  container::Container cont;
  cont.deploy(ServiceUri("svc://server/echo"), make_echo(), DeploymentDescriptor{});
  auto nr = install_nr_server(*server.coordinator, cont);
  world.network.set_link("client", "server", net::LinkConfig{.latency = 5, .drop = 0.3});
  world.network.set_link("server", "client", net::LinkConfig{.latency = 5, .drop = 0.3});
  DirectInvocationClient handler(*client.coordinator,
                                 InvocationConfig{.request_timeout = 120000});
  std::uint64_t msgs = 0, virtual_ms = 0, n = 0;
  for (auto _ : state) {
    world.network.reset_stats();
    const TimeMs t0 = world.clock->now();
    Invocation inv;
    inv.service = ServiceUri("svc://server/echo");
    inv.method = "echo";
    inv.arguments = Bytes(512, 1);
    inv.caller = client.id;
    auto result = handler.invoke("server", inv);
    if (!result.ok()) state.SkipWithError("failed");
    world.network.run();
    msgs += world.network.stats().sent;
    virtual_ms += world.clock->now() - t0;
    ++n;
  }
  state.counters["retry_ms"] = static_cast<double>(state.range(0));
  state.counters["msgs/op"] = static_cast<double>(msgs) / static_cast<double>(n);
  state.counters["virtual_ms/op"] =
      static_cast<double>(virtual_ms) / static_cast<double>(n);
}
BENCHMARK(BM_Ablation_RetryInterval)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMicrosecond);

void BM_Ablation_LogBackend(benchmark::State& state) {
  AblationRig rig(AblationRig::Scheme::kRsa512, false, /*journal_log=*/state.range(0) == 1);
  DirectInvocationClient handler(*rig.client->coordinator);
  for (auto _ : state) {
    rig.run_one(state, handler);
  }
  state.counters["journal_backend"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Ablation_LogBackend)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
