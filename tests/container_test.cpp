#include <gtest/gtest.h>

#include "container/container.hpp"
#include "container/interceptor.hpp"
#include "container/invocation.hpp"
#include "container/proxy.hpp"
#include "net/rpc.hpp"
#include "util/serialize.hpp"

namespace nonrep::container {
namespace {

std::shared_ptr<Component> make_adder() {
  auto c = std::make_shared<Component>();
  c->bind("add", [](const Invocation& inv) -> Result<Bytes> {
    BinaryReader r(inv.arguments);
    auto a = r.u32();
    auto b = r.u32();
    if (!a || !b) return Error::make("bad_args", "expected two u32");
    BinaryWriter w;
    w.u32(a.value() + b.value());
    return std::move(w).take();
  });
  c->bind("fail", [](const Invocation&) -> Result<Bytes> {
    return Error::make("app.error", "deliberate");
  });
  return c;
}

Bytes add_args(std::uint32_t a, std::uint32_t b) {
  BinaryWriter w;
  w.u32(a);
  w.u32(b);
  return std::move(w).take();
}

TEST(Invocation, CanonicalIsDeterministic) {
  Invocation i1;
  i1.service = ServiceUri("svc://a/adder");
  i1.method = "add";
  i1.arguments = add_args(1, 2);
  i1.caller = PartyId("org:a");
  i1.context["k2"] = "v2";
  i1.context["k1"] = "v1";
  Invocation i2 = i1;
  EXPECT_EQ(i1.canonical(), i2.canonical());
}

TEST(Invocation, EncodeDecodeRoundTrip) {
  Invocation inv;
  inv.service = ServiceUri("svc://a/adder");
  inv.method = "add";
  inv.arguments = add_args(3, 4);
  inv.caller = PartyId("org:client");
  inv.context["trace"] = "t-1";
  auto decoded = decode_invocation(encode_invocation(inv));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().service, inv.service);
  EXPECT_EQ(decoded.value().method, inv.method);
  EXPECT_EQ(decoded.value().arguments, inv.arguments);
  EXPECT_EQ(decoded.value().caller, inv.caller);
  EXPECT_EQ(decoded.value().context.at("trace"), "t-1");
}

TEST(Invocation, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode_invocation(to_bytes("rubbish")).ok());
}

// Hand-built invocation body with the given context entries, in the given
// order (encode_invocation can only emit them sorted and unique).
Bytes body_with_context(const std::vector<std::pair<std::string, std::string>>& entries) {
  BinaryWriter w;
  w.str("svc://a/adder");
  w.str("add");
  w.bytes(add_args(1, 2));
  w.str("org:client");
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [k, v] : entries) {
    w.str(k);
    w.str(v);
  }
  return std::move(w).take();
}

TEST(Invocation, DecodeRejectsTrailingBytes) {
  Bytes body = body_with_context({{"trace", "t-1"}});
  ASSERT_TRUE(decode_invocation(body).ok());
  body.push_back(0x00);
  auto r = decode_invocation(body);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "container.bad_invocation");
}

TEST(Invocation, DecodeRejectsDuplicateContextKey) {
  auto r = decode_invocation(body_with_context({{"k", "first"}, {"k", "second"}}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "container.bad_invocation");
}

TEST(Invocation, DecodeRejectsUnsortedContextKeys) {
  auto r = decode_invocation(body_with_context({{"k2", "v2"}, {"k1", "v1"}}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "container.bad_invocation");
}

TEST(Invocation, AcceptedBodyReencodesToItsInput) {
  for (const auto& entries : std::vector<std::vector<std::pair<std::string, std::string>>>{
           {}, {{"trace", "t-1"}}, {{"", "empty key"}, {"a", ""}, {"ab", "x"}, {"b", "y"}}}) {
    const Bytes body = body_with_context(entries);
    auto decoded = decode_invocation(body);
    ASSERT_TRUE(decoded.ok()) << decoded.error().code;
    EXPECT_EQ(decoded.value().canonical(), body);
    EXPECT_EQ(decoded.value().context.size(), entries.size());
  }
}

TEST(Invocation, ResultRoundTrip) {
  auto r = InvocationResult::success(to_bytes("payload"));
  auto decoded = InvocationResult::from_canonical(r.canonical());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().ok());
  EXPECT_EQ(decoded.value().payload, to_bytes("payload"));
}

TEST(Invocation, OutcomeNames) {
  EXPECT_EQ(to_string(Outcome::kSuccess), "success");
  EXPECT_EQ(to_string(Outcome::kTimeout), "timeout");
  EXPECT_EQ(to_string(Outcome::kNotExecuted), "not-executed");
}

TEST(Component, DispatchesBoundMethod) {
  auto c = make_adder();
  Invocation inv;
  inv.method = "add";
  inv.arguments = add_args(20, 22);
  auto result = c->handle(inv);
  ASSERT_TRUE(result.ok());
  BinaryReader r(result.payload);
  EXPECT_EQ(r.u32().value(), 42u);
}

TEST(Component, UnknownMethodFails) {
  auto c = make_adder();
  Invocation inv;
  inv.method = "nope";
  auto result = c->handle(inv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.outcome, Outcome::kFailure);
}

TEST(Component, ApplicationErrorSurfaced) {
  auto c = make_adder();
  Invocation inv;
  inv.method = "fail";
  auto result = c->handle(inv);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(nonrep::to_string(result.payload).find("app.error"), std::string::npos);
}

TEST(InterceptorChain, RunsInOrderAroundTerminal) {
  std::vector<std::string> trace;
  class Tracer : public Interceptor {
   public:
    Tracer(std::string n, std::vector<std::string>& t) : n_(std::move(n)), t_(&t) {}
    std::string name() const override { return n_; }
    InvocationResult invoke(Invocation& inv, InterceptorChain& next) override {
      t_->push_back(n_ + ":pre");
      auto r = next.proceed(inv);
      t_->push_back(n_ + ":post");
      return r;
    }
   private:
    std::string n_;
    std::vector<std::string>* t_;
  };
  InterceptorChain chain({std::make_shared<Tracer>("outer", trace),
                          std::make_shared<Tracer>("inner", trace)},
                         [&](Invocation&) {
                           trace.push_back("terminal");
                           return InvocationResult::success({});
                         });
  Invocation inv;
  chain.invoke(inv);
  EXPECT_EQ(trace, (std::vector<std::string>{"outer:pre", "inner:pre", "terminal",
                                             "inner:post", "outer:post"}));
}

TEST(InterceptorChain, ContextInterceptorStamps) {
  InterceptorChain chain({std::make_shared<ContextInterceptor>("tenant", "acme")},
                         [](Invocation& inv) {
                           return InvocationResult::success(to_bytes(inv.context["tenant"]));
                         });
  Invocation inv;
  auto result = chain.invoke(inv);
  EXPECT_EQ(nonrep::to_string(result.payload), "acme");
}

TEST(InterceptorChain, CountingInterceptorCounts) {
  auto counter = std::make_shared<CountingInterceptor>("count");
  InterceptorChain chain({counter}, [](Invocation&) {
    return InvocationResult::success({});
  });
  Invocation inv;
  chain.invoke(inv);
  chain.invoke(inv);
  EXPECT_EQ(counter->calls(), 2u);
}

TEST(InterceptorChain, InterceptorMayShortCircuit) {
  class Blocker : public Interceptor {
   public:
    std::string name() const override { return "blocker"; }
    InvocationResult invoke(Invocation&, InterceptorChain&) override {
      return InvocationResult::failure(Outcome::kNotExecuted, "blocked");
    }
  };
  bool terminal_ran = false;
  InterceptorChain chain({std::make_shared<Blocker>()}, [&](Invocation&) {
    terminal_ran = true;
    return InvocationResult::success({});
  });
  Invocation inv;
  auto result = chain.invoke(inv);
  EXPECT_FALSE(terminal_ran);
  EXPECT_EQ(result.outcome, Outcome::kNotExecuted);
}

struct ContainerFixture : ::testing::Test {
  ContainerFixture() {
    container.deploy(ServiceUri("svc://s/adder"), make_adder(), DeploymentDescriptor{});
  }
  Container container;

  Invocation make_inv(const std::string& run = "") {
    Invocation inv;
    inv.service = ServiceUri("svc://s/adder");
    inv.method = "add";
    inv.arguments = add_args(1, 2);
    inv.caller = PartyId("org:c");
    if (!run.empty()) inv.context[kRunIdContextKey] = run;
    return inv;
  }
};

TEST_F(ContainerFixture, InvokeDeployedComponent) {
  auto inv = make_inv();
  auto result = container.invoke(inv);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(container.executions(), 1u);
}

TEST_F(ContainerFixture, UnknownServiceNotExecuted) {
  Invocation inv = make_inv();
  inv.service = ServiceUri("svc://s/ghost");
  auto result = container.invoke(inv);
  EXPECT_EQ(result.outcome, Outcome::kNotExecuted);
}

TEST_F(ContainerFixture, AtMostOncePerRunId) {
  auto inv1 = make_inv("run-1");
  auto r1 = container.invoke(inv1);
  auto inv2 = make_inv("run-1");  // duplicate delivery of the same run
  auto r2 = container.invoke(inv2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.payload, r2.payload);
  EXPECT_EQ(container.executions(), 1u);  // executed once
}

TEST_F(ContainerFixture, DifferentRunsExecuteSeparately) {
  auto inv1 = make_inv("run-1");
  auto inv2 = make_inv("run-2");
  container.invoke(inv1);
  container.invoke(inv2);
  EXPECT_EQ(container.executions(), 2u);
}

TEST_F(ContainerFixture, DescriptorStored) {
  DeploymentDescriptor d;
  d.non_repudiation = true;
  d.protocol = "direct";
  d.validators = {"svc://s/validator"};
  container.deploy(ServiceUri("svc://s/nr"), make_adder(), d);
  const DeploymentDescriptor* got = container.descriptor(ServiceUri("svc://s/nr"));
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->non_repudiation);
  EXPECT_EQ(got->protocol, "direct");
  ASSERT_EQ(got->validators.size(), 1u);
}

TEST_F(ContainerFixture, ServerSideInterceptorsRun) {
  auto counter = std::make_shared<CountingInterceptor>("server-side");
  container.deploy(ServiceUri("svc://s/watched"), make_adder(), DeploymentDescriptor{},
                   {counter});
  Invocation inv = make_inv();
  inv.service = ServiceUri("svc://s/watched");
  container.invoke(inv);
  EXPECT_EQ(counter->calls(), 1u);
}

TEST(ClientProxy, LocalTransportInvokes) {
  Container container;
  container.deploy(ServiceUri("svc://s/adder"), make_adder(), DeploymentDescriptor{});
  ClientProxy proxy(PartyId("org:c"), ServiceUri("svc://s/adder"), {},
                    local_transport(container));
  auto result = proxy.call("add", add_args(2, 3));
  ASSERT_TRUE(result.ok());
  BinaryReader r(result.payload);
  EXPECT_EQ(r.u32().value(), 5u);
}

TEST(ClientProxy, RemoteTransportOverNetwork) {
  auto clock = std::make_shared<SimClock>(0);
  net::SimNetwork net(clock, 3);
  net::RpcEndpoint client_ep(net, "client");
  net::RpcEndpoint server_ep(net, "server");
  Container container;
  container.deploy(ServiceUri("svc://s/adder"), make_adder(), DeploymentDescriptor{});
  InvocationListener listener(server_ep, container);

  ClientProxy proxy(PartyId("org:c"), ServiceUri("svc://s/adder"), {},
                    remote_transport(client_ep, "server", 1000));
  auto result = proxy.call("add", add_args(40, 2));
  ASSERT_TRUE(result.ok());
  BinaryReader r(result.payload);
  EXPECT_EQ(r.u32().value(), 42u);
}

TEST(ClientProxy, RemoteTransportTimesOut) {
  auto clock = std::make_shared<SimClock>(0);
  net::SimNetwork net(clock, 3);
  net::RpcEndpoint client_ep(net, "client");
  ClientProxy proxy(PartyId("org:c"), ServiceUri("svc://s/ghost"), {},
                    remote_transport(client_ep, "nowhere", 100));
  auto result = proxy.call("add", add_args(1, 1));
  EXPECT_EQ(result.outcome, Outcome::kTimeout);
}

TEST(ClientProxy, ClientInterceptorsRunBeforeTransport) {
  Container container;
  container.deploy(ServiceUri("svc://s/adder"), make_adder(), DeploymentDescriptor{});
  auto counter = std::make_shared<CountingInterceptor>("client-side");
  ClientProxy proxy(PartyId("org:c"), ServiceUri("svc://s/adder"),
                    {counter, std::make_shared<ContextInterceptor>("via", "proxy")},
                    local_transport(container));
  proxy.call("add", add_args(1, 1));
  EXPECT_EQ(counter->calls(), 1u);
}

}  // namespace
}  // namespace nonrep::container
