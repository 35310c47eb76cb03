#include "scenario/world.hpp"

#include "obs/trace.hpp"

namespace nonrep::scenario {

World::World(std::uint64_t seed, std::size_t rsa_bits)
    : clock(std::make_shared<SimClock>(1000)),
      network(clock, seed),
      rng_(to_bytes("world-seed-" + std::to_string(seed))),
      rsa_bits_(rsa_bits),
      objects_(std::make_shared<store::ObjectStore>()) {
  // Spans opened while this world exists stamp vstart/vend from its
  // virtual clock; the clock is shared, so a later world simply replaces it.
  obs::Tracer::global().set_clock(clock);
  auto ca_key = crypto::rsa_generate(rng_, rsa_bits_);
  auto ca_signer = std::make_shared<crypto::RsaSigner>(std::move(ca_key));
  ca_ = std::make_unique<pki::CertificateAuthority>(PartyId("ca:root"), ca_signer, 0,
                                                    kFarFuture);
  revocation_ = std::make_unique<pki::RevocationAuthority>(PartyId("ca:root"), ca_signer);
  objects_->put(store::kTypeCert, ca_->certificate().encode());
}

Party& World::add_party(const std::string& name, net::ReliableConfig reliable,
                        std::unique_ptr<store::LogBackend> log_backend) {
  auto party = std::make_unique<Party>();
  party->id = PartyId("org:" + name);
  party->address = name;

  auto key = crypto::rsa_generate(rng_, rsa_bits_);
  party->signer = std::make_shared<crypto::RsaSigner>(std::move(key));
  party->certificate = ca_->issue(party->id, party->signer->algorithm(),
                                  party->signer->public_key(), 0, kFarFuture)
                           .take();

  party->credentials = std::make_shared<pki::CredentialManager>();
  auto root_ok = party->credentials->add_trusted_root(ca_->certificate());
  (void)root_ok;
  party->credentials->add_certificate(party->certificate);
  // Cross-register certificates with everyone already in the world. The
  // cert itself lands in the fleet store once, however many parties file it.
  objects_->put(store::kTypeCert, party->certificate.encode());
  for (auto& other : parties_) {
    other->credentials->add_certificate(party->certificate);
    party->credentials->add_certificate(other->certificate);
  }

  if (!log_backend) log_backend = std::make_unique<store::MemoryLogBackend>();
  party->log = std::make_shared<store::EvidenceLog>(std::move(log_backend), clock);
  party->states = std::make_shared<store::StateStore>();
  party->evidence = std::make_shared<core::EvidenceService>(
      party->id, party->signer, party->credentials, party->log, party->states, clock,
      /*rng_seed=*/parties_.size() + 7);
  party->coordinator = std::make_unique<core::Coordinator>(party->evidence, network,
                                                           party->address, reliable);
  parties_.push_back(std::move(party));
  return *parties_.back();
}

void World::broadcast_crl() {
  const auto crl = revocation_->current(clock->now()).take();
  for (auto& p : parties_) (void)p->credentials->install_crl(crl);
}

}  // namespace nonrep::scenario
