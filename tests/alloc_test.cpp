// Heap allocations on the evidence path.
//
// This binary replaces the global operator new/delete with versions that
// count each allocation and forward to malloc/free, then pins how many
// allocations the canonical encoders and one whole exchange make. Encoders
// size their buffer exactly (util/serialize.hpp), so each encoding is one
// allocation; the hashing and trial-division helpers make none.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"
#include "container/container.hpp"
#include "core/invocation_protocol.hpp"
#include "core/nr_interceptor.hpp"
#include "core/protocol_message.hpp"
#include "crypto/bigint.hpp"
#include "store/evidence_log.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nonrep {
namespace {

template <typename F>
std::size_t allocations(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

core::EvidenceToken sample_token() {
  core::EvidenceToken t;
  t.type = core::EvidenceType::kNroRequest;
  t.run = RunId("0123456789abcdef0123456789abcdef");
  t.issuer = PartyId("org:an-issuer-name-past-sso");
  t.issued_at = 1234;
  t.subject = crypto::Sha256::hash(to_bytes("subject"));
  t.signature = Bytes(64, 0x5a);
  return t;
}

store::LogRecord sample_record() {
  store::LogRecord r;
  r.sequence = 7;
  r.time = 99;
  r.run = RunId("0123456789abcdef0123456789abcdef");
  r.kind = "token.NRO-request";
  r.payload = sample_token().encode();
  return r;
}

TEST(Allocations, TokenEncodeAndTbsAllocateOnce) {
  const core::EvidenceToken t = sample_token();
  Bytes out;
  EXPECT_EQ(allocations([&] { out = t.tbs(); }), 1u);
  EXPECT_EQ(out.capacity(), out.size());
  EXPECT_EQ(allocations([&] { out = t.encode(); }), 1u);
  EXPECT_EQ(out.capacity(), out.size());
}

TEST(Allocations, LogRecordCanonicalAllocatesOnce) {
  const store::LogRecord r = sample_record();
  Bytes out;
  EXPECT_EQ(allocations([&] { out = r.canonical(); }), 1u);
  EXPECT_EQ(out.capacity(), out.size());
}

TEST(Allocations, ChainDigestAllocatesNothing) {
  const store::LogRecord r = sample_record();
  crypto::Digest d{};
  EXPECT_EQ(allocations([&] { d = store::chain_digest(crypto::Digest{}, r); }), 0u);
  EXPECT_NE(d, crypto::Digest{});
}

TEST(Allocations, ModSmallAllocatesNothing) {
  const crypto::BigUint n = crypto::BigUint::from_bytes_be(Bytes(64, 0xc3));
  std::uint32_t sum = 0;
  EXPECT_EQ(allocations([&] {
              for (std::uint32_t p : {3u, 5u, 7u, 65537u}) sum += crypto::BigUint::mod_small(n, p);
            }),
            0u);
  std::uint32_t rem = 0;
  (void)crypto::BigUint::div_small(n, 65537, rem);
  EXPECT_EQ(crypto::BigUint::mod_small(n, 65537), rem);
}

TEST(Allocations, ProtocolMessageEncodeIsOneBuffer) {
  core::ProtocolMessage m;
  m.protocol = "nr.invocation.direct";
  m.run = RunId("0123456789abcdef0123456789abcdef");
  m.step = 2;
  m.sender = PartyId("org:server");
  m.body = Bytes(40, 1);
  m.tokens = {sample_token(), sample_token()};
  Bytes out;
  EXPECT_LE(allocations([&] { out = m.encode(); }), 1u);
  EXPECT_EQ(out.capacity(), out.size());
}

// One classic-mode (single-threaded) direct exchange: client steps 1-3 and
// the server's handler, with in-memory logs. The count covers the second
// exchange, so one-time set-up (caches, lazily built contexts) is excluded.
// Measured with this harness (RelWithDebInfo, g++ 12): 803 allocations at the
// parent of the exact-size encoder change, and kExchangeBudget after it.
constexpr std::size_t kExchangeBudget = 278;

TEST(Allocations, DirectExchangeBudget) {
  test::TestWorld world;
  test::Party& client = world.add_party("client");
  test::Party& server = world.add_party("server");
  container::Container container;
  auto echo = std::make_shared<container::Component>();
  echo->bind("echo", [](const container::Invocation& inv) -> Result<Bytes> {
    return inv.arguments;
  });
  container.deploy(ServiceUri("svc://server/echo"), echo,
                   container::DeploymentDescriptor{.non_repudiation = true, .protocol = "direct"});
  auto server_handler = core::install_nr_server(*server.coordinator, container);
  core::DirectInvocationClient handler(*client.coordinator);

  const auto exchange = [&] {
    container::Invocation inv;
    inv.service = ServiceUri("svc://server/echo");
    inv.method = "echo";
    inv.arguments = to_bytes("payload");
    inv.caller = client.id;
    auto result = handler.invoke("server", inv);
    world.network.run();  // deliver the one-way NRR_resp
    return result.ok();
  };
  ASSERT_TRUE(exchange());
  bool ok = false;
  const std::size_t n = allocations([&] { ok = exchange(); });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(server_handler->run_complete(handler.last_run()));
  std::printf("allocations per direct exchange: %zu\n", n);
  EXPECT_LE(n, kExchangeBudget);
}

}  // namespace
}  // namespace nonrep
