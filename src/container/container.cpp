#include "container/container.hpp"

namespace nonrep::container {

InvocationResult Component::handle(const Invocation& inv) const {
  auto it = methods_.find(inv.method);
  if (it == methods_.end()) {
    return InvocationResult::failure(Outcome::kFailure, "no such method: " + inv.method);
  }
  auto result = it->second(inv);
  if (!result) {
    return InvocationResult::failure(Outcome::kFailure, result.error().code + ": " +
                                                            result.error().detail);
  }
  return InvocationResult::success(std::move(result).take());
}

void Container::deploy(const ServiceUri& service, std::shared_ptr<Component> component,
                       DeploymentDescriptor descriptor,
                       std::vector<std::shared_ptr<Interceptor>> interceptors) {
  deployments_[service] =
      Deployment{std::move(component), std::move(descriptor), std::move(interceptors)};
}

bool Container::deployed(const ServiceUri& service) const {
  return deployments_.contains(service);
}

const DeploymentDescriptor* Container::descriptor(const ServiceUri& service) const {
  auto it = deployments_.find(service);
  return it != deployments_.end() ? &it->second.descriptor : nullptr;
}

std::shared_ptr<Component> Container::component(const ServiceUri& service) const {
  auto it = deployments_.find(service);
  return it != deployments_.end() ? it->second.component : nullptr;
}

InvocationResult Container::invoke(Invocation& inv) {
  auto it = deployments_.find(inv.service);
  if (it == deployments_.end()) {
    return InvocationResult::failure(Outcome::kNotExecuted,
                                     "no component at " + inv.service.str());
  }
  Deployment& dep = it->second;

  // At-most-once (§3.2): a duplicate of an already-executed run returns the
  // recorded result without re-executing the component.
  const auto run_it = inv.context.find(kRunIdContextKey);
  const std::string run_key =
      run_it != inv.context.end() ? inv.service.str() + "#" + run_it->second : "";
  if (!run_key.empty()) {
    if (auto done = completed_runs_.find(run_key); done != completed_runs_.end()) {
      auto replay = InvocationResult::from_canonical(done->second);
      if (replay) {
        inv.context.emplace(kReplayedContextKey, "1");
        return replay.value();
      }
    }
  }

  InterceptorChain chain(dep.interceptors, [this, &dep](Invocation& i) {
    ++executions_;
    return dep.component->handle(i);
  });
  InvocationResult result = chain.invoke(inv);

  if (!run_key.empty() &&
      completed_runs_.insert_or_assign(run_key, result.canonical()).second) {
    completed_runs_gauge_.add(1);
  }
  return result;
}

}  // namespace nonrep::container
