// Non-repudiable information sharing — B2BObjects (§3.3, §4.3, ref [5]).
//
// Each party hosts a local replica of the shared object. An update is
// intercepted by the owner's B2BObjectController, which runs a
// non-repudiable state coordination protocol:
//
//   1. the proposer's update is irrefutably attributable to it (kProposal)
//   2. every other member independently validates the update with local,
//      application-specific validators and returns a signed vote (kVote)
//   3. the collective decision is distributed to all parties (kDecision,
//      carrying every vote token) and applied only on unanimity.
//
// "From the application viewpoint, the update to shared information is an
// atomic action that succeeds or fails dependent on the agreement of the
// parties sharing the information." Membership changes run the same round
// with a View payload (non-repudiable connect/disconnect), and several
// local operations can be rolled up into one coordination event.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "util/lock_discipline.hpp"
#include "container/container.hpp"
#include "container/interceptor.hpp"
#include "core/coordinator.hpp"
#include "membership/membership.hpp"

namespace nonrep::core {

inline constexpr const char* kSharingProtocol = "nr.sharing.b2b";

// Protocol steps.
inline constexpr std::uint32_t kStepPropose = 1;  // request -> signed vote
inline constexpr std::uint32_t kStepDecide = 2;   // one-way decision fan-out
inline constexpr std::uint32_t kStepJoin = 4;     // one-way state transfer to newcomer

enum class RoundKind : std::uint8_t {
  kState = 1,       // update to shared state
  kConnect = 2,     // add a member
  kDisconnect = 3,  // remove a member
};

/// Application-specific validation hook (§4.3 "state validators,
/// implemented as session beans").
class StateValidator {
 public:
  virtual ~StateValidator() = default;
  /// True iff `proposed` is a legal successor of `current` for `object`.
  virtual bool validate(const ObjectId& object, const PartyId& proposer,
                        BytesView current, BytesView proposed) = 0;
};

/// Adapter: use a container component's "validate" method as a validator
/// (the paper's validator session beans, Figure 8).
class ComponentValidator final : public StateValidator {
 public:
  explicit ComponentValidator(std::shared_ptr<container::Component> component)
      : component_(std::move(component)) {}
  bool validate(const ObjectId& object, const PartyId& proposer, BytesView current,
                BytesView proposed) override;

 private:
  std::shared_ptr<container::Component> component_;
};

struct SharingConfig {
  TimeMs vote_timeout = 2000;   // per-member wait for a vote
  TimeMs lock_lease = 4000;     // proposal lock expiry (liveness under crash)
};

struct SharedObjectState {
  Bytes state;
  std::uint64_t version = 0;
};

/// The local controller + protocol handler for all objects a party shares.
///
/// Thread-safe: in the concurrent runtime an application thread
/// coordinates a round (blocking on deliver_request calls) while the
/// party's delivery strand serves other proposers' votes and decision
/// fan-ins. One shared_mutex guards all
/// per-object state (replicas, validators, staging, proposal locks);
/// reads that dominate (get/hosts/in_rollup) take it shared. Lock
/// ordering: mu_ -> MembershipService / EvidenceService-store leaf locks;
/// mu_ is NEVER held across Coordinator::deliver/deliver_request.
/// Validators run under mu_, so they must not call back into the
/// controller (the bundled validators are pure byte predicates).
class B2BObjectController final : public ProtocolHandler {
 public:
  B2BObjectController(Coordinator& coordinator, membership::MembershipService& membership,
                      SharingConfig config = {});

  // -- hosting ---------------------------------------------------------
  /// Host a replica with an existing membership group for `object`.
  Status host(const ObjectId& object, Bytes initial_state);
  bool hosts(const ObjectId& object) const;
  Result<SharedObjectState> get(const ObjectId& object) const;
  void add_validator(const ObjectId& object, std::shared_ptr<StateValidator> validator);

  // -- state coordination ----------------------------------------------
  /// Propose a new state; returns the new version on unanimous agreement.
  Result<std::uint64_t> propose_update(const ObjectId& object, Bytes new_state);

  // -- roll-up (§4.3) ----------------------------------------------------
  /// Stage local operations and coordinate once on commit.
  Status begin_changes(const ObjectId& object);
  Status stage(const ObjectId& object, Bytes working_state);
  Result<std::uint64_t> commit_changes(const ObjectId& object);
  /// Drop staged changes without coordinating (failed facade method).
  Status commit_abandon(const ObjectId& object);
  bool in_rollup(const ObjectId& object) const;

  // -- membership (non-repudiable connect/disconnect, §3.3) -------------
  Status connect(const ObjectId& object, const membership::Member& newcomer);
  Status disconnect(const ObjectId& object, const PartyId& leaver);

  // -- ProtocolHandler ---------------------------------------------------
  std::string protocol() const override { return kSharingProtocol; }
  Result<ProtocolMessage> process_request(const net::Address& from,
                                          const ProtocolMessage& msg) override;
  void process(const net::Address& from, const ProtocolMessage& msg) override;

  // -- introspection -----------------------------------------------------
  std::uint64_t rounds_started() const noexcept {
    return rounds_started_.load(std::memory_order_relaxed);
  }
  std::uint64_t rounds_committed() const noexcept {
    return rounds_committed_.load(std::memory_order_relaxed);
  }

 private:
  struct Round {
    RoundKind kind;
    ObjectId object;
    std::uint64_t base_version;
    Bytes payload;  // proposed state, or View::canonical() for membership
  };

  Bytes proposal_subject(const Round& round, const RunId& run) const;
  Bytes vote_subject(const Round& round, const RunId& run, bool accept) const;
  Bytes decision_subject(const Round& round, const RunId& run, bool commit) const;

  /// Run one full coordination round as proposer.
  Result<std::uint64_t> coordinate(Round round);
  /// Local validation used by both proposer and voters. Caller holds mu_.
  bool validate_round_locked(const Round& round, const PartyId& proposer) const;
  /// Apply an agreed round locally (state or membership). Caller holds mu_
  /// exclusively.
  Status apply_round_locked(const Round& round, const RunId& run);

  Result<membership::View> view_of(const ObjectId& object) const;

  Coordinator* coordinator_;
  membership::MembershipService* membership_;
  SharingConfig config_;

  // All per-object state below is guarded by mu_ (see class comment).
  mutable util::SharedMutex mu_{util::LockRank::kHandler, "sharing.object_controller"};
  std::map<ObjectId, SharedObjectState> objects_ NONREP_GUARDED_BY(mu_);
  std::map<ObjectId, std::vector<std::shared_ptr<StateValidator>>> validators_
      NONREP_GUARDED_BY(mu_);
  std::map<ObjectId, Bytes> staging_ NONREP_GUARDED_BY(mu_);  // roll-up working copies

  struct Lock {
    RunId run;
    TimeMs expires;
    // The accept vote this party signed for `run`, once issued: the only
    // own vote a decision may carry that counts without a check.
    std::optional<EvidenceToken> vote;
  };
  std::map<ObjectId, Lock> locks_ NONREP_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> rounds_started_{0};
  std::atomic<std::uint64_t> rounds_committed_{0};
};

/// Container interceptor that traps invocations on an entity component and
/// routes the resulting state change through the controller (§4.3: "An
/// interceptor traps invocations on the entity bean to ensure that a
/// B2BObjectController controls access and update to the bean"). The
/// component must expose get_state/set_state methods (see EntityComponent).
class B2BObjectInterceptor final : public container::Interceptor {
 public:
  B2BObjectInterceptor(B2BObjectController& controller, ObjectId object)
      : controller_(&controller), object_(std::move(object)) {}

  std::string name() const override { return "b2bobject[" + object_.str() + "]"; }
  container::InvocationResult invoke(container::Invocation& inv,
                                     container::InterceptorChain& next) override;

 private:
  B2BObjectController* controller_;
  ObjectId object_;
};

/// Session-facade interceptor implementing descriptor-driven roll-up
/// (§4.3): "the application programmer may specify that a method in the
/// application interface should result in a series of operations on an
/// underlying B2BObject bean being 'rolled-up' into a single coordination
/// event." For methods listed in the deployment descriptor's
/// `rollup_methods`, the whole invocation runs between begin_changes and
/// commit_changes: inner entity operations stage locally and one
/// coordination round commits them. A failed round fails the invocation.
class RollupInterceptor final : public container::Interceptor {
 public:
  RollupInterceptor(B2BObjectController& controller, ObjectId object,
                    std::set<std::string> rollup_methods)
      : controller_(&controller),
        object_(std::move(object)),
        rollup_methods_(std::move(rollup_methods)) {}

  std::string name() const override { return "rollup[" + object_.str() + "]"; }
  container::InvocationResult invoke(container::Invocation& inv,
                                     container::InterceptorChain& next) override;

 private:
  B2BObjectController* controller_;
  ObjectId object_;
  std::set<std::string> rollup_methods_;
};

/// An entity component with byte state, mutated by bound methods; the
/// paper's "entity bean identified as a B2BObject".
class EntityComponent : public container::Component {
 public:
  explicit EntityComponent(Bytes initial) : state_(std::move(initial)) {}

  const Bytes& state() const noexcept { return state_; }
  void set_state(Bytes s) { state_ = std::move(s); }

 private:
  Bytes state_;
};

}  // namespace nonrep::core
