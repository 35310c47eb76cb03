// Component container: hosts components behind interceptor chains.
//
// The C++ analogue of the EJB container of Figure 6: "the container
// intercepts remote invocations on the bean and is responsible for
// invoking appropriate low-level services ... for each operation". A
// DeploymentDescriptor declares, per component, whether non-repudiation is
// required and with which platform/protocol (§4.2: "the application
// programmer on the server side is responsible for identifying, in a
// bean's deployment descriptor, when non-repudiation is required").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "container/interceptor.hpp"
#include "container/invocation.hpp"

namespace nonrep::container {

/// A hosted component ("enterprise bean"). Concrete components register
/// method handlers by name.
class Component {
 public:
  using Method = std::function<Result<Bytes>(const Invocation&)>;

  virtual ~Component() = default;

  void bind(const std::string& method, Method fn) { methods_[method] = std::move(fn); }

  /// Dispatch one invocation to the bound method.
  InvocationResult handle(const Invocation& inv) const;

 private:
  std::map<std::string, Method> methods_;
};

/// Per-component deployment configuration (§4.2, §4.3).
struct DeploymentDescriptor {
  bool non_repudiation = false;   // add the NR interceptor?
  std::string platform = "cpp-sim";
  std::string protocol = "direct";
  bool b2b_object = false;        // entity coordinated as a B2BObject (§4.3)
  std::vector<std::string> validators;  // validator components (§4.3)
  /// Methods whose underlying B2BObject operations are rolled up into a
  /// single coordination event (§4.3 "rolled-up").
  std::set<std::string> rollup_methods;
};

class Container {
 public:
  /// Deploy a component under `service`; interceptors run before it.
  void deploy(const ServiceUri& service, std::shared_ptr<Component> component,
              DeploymentDescriptor descriptor,
              std::vector<std::shared_ptr<Interceptor>> interceptors = {});

  bool deployed(const ServiceUri& service) const;
  const DeploymentDescriptor* descriptor(const ServiceUri& service) const;
  std::shared_ptr<Component> component(const ServiceUri& service) const;

  /// Run the invocation through the component's server-side chain.
  /// At-most-once: when the invocation carries a run id that was already
  /// executed, the recorded result is returned without re-execution and
  /// `inv.context` gains kReplayedContextKey.
  InvocationResult invoke(Invocation& inv);

  std::uint64_t executions() const noexcept { return executions_; }

 private:
  struct Deployment {
    std::shared_ptr<Component> component;
    DeploymentDescriptor descriptor;
    std::vector<std::shared_ptr<Interceptor>> interceptors;
  };

  std::map<ServiceUri, Deployment> deployments_;
  /// run-id -> canonical result, for duplicate suppression.
  std::map<std::string, Bytes> completed_runs_;
  std::uint64_t executions_ = 0;
};

/// Context key carrying the protocol run id for at-most-once filtering.
inline constexpr const char* kRunIdContextKey = "nonrep.run";
/// Context key Container::invoke sets when it answers a run id it already
/// executed.
inline constexpr const char* kReplayedContextKey = "nonrep.replayed";

}  // namespace nonrep::container
