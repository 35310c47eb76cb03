#include "core/sharing.hpp"

#include <algorithm>
#include <set>

#include "util/serialize.hpp"

namespace nonrep::core {

namespace {

Bytes encode_round(RoundKind kind, const ObjectId& object, std::uint64_t base_version,
                   BytesView payload) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.str(object.str());
  w.u64(base_version);
  w.bytes(payload);
  return std::move(w).take();
}

struct DecodedRound {
  RoundKind kind;
  ObjectId object;
  std::uint64_t base_version;
  Bytes payload;
};

Result<DecodedRound> decode_round(BinaryReader& r) {
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() < 1 || kind.value() > 3) {
    return Error::make("sharing.bad_round_kind", std::to_string(kind.value()));
  }
  auto object = r.str();
  if (!object) return object.error();
  auto base = r.u64();
  if (!base) return base.error();
  auto payload = r.bytes();
  if (!payload) return payload.error();
  return DecodedRound{static_cast<RoundKind>(kind.value()), ObjectId(object.value()),
                      base.value(), payload.value()};
}

Result<membership::View> decode_view(BytesView canonical) {
  BinaryReader r(canonical);
  membership::View view;
  auto version = r.u64();
  if (!version) return version.error();
  view.version = version.value();
  auto count = r.u32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto party = r.str();
    if (!party) return party.error();
    auto address = r.str();
    if (!address) return address.error();
    view.members[PartyId(party.value())] = address.value();
  }
  return view;
}

/// Parties whose signed accept-vote a round needs. For a disconnect round
/// the member being removed is not a required voter — a crashed or
/// malicious party must not be able to veto its own eviction (liveness
/// would otherwise be lost forever with a dead member, §3.1).
std::size_t required_votes(RoundKind kind, BytesView payload,
                           const membership::View& view) {
  if (kind != RoundKind::kDisconnect) return view.members.size();
  auto next = decode_view(payload);
  if (!next) return view.members.size();
  std::size_t required = 0;
  for (const auto& [party, _] : view.members) {
    if (next.value().contains(party)) ++required;
  }
  return required;
}

bool is_required_voter(RoundKind kind, BytesView payload, const PartyId& party) {
  if (kind != RoundKind::kDisconnect) return true;
  auto next = decode_view(payload);
  return !next.ok() || next.value().contains(party);
}

}  // namespace

bool ComponentValidator::validate(const ObjectId& object, const PartyId& proposer,
                                  BytesView current, BytesView proposed) {
  container::Invocation inv;
  inv.service = ServiceUri("local:validator");
  inv.method = "validate";
  inv.caller = proposer;
  BinaryWriter w;
  w.str(object.str());
  w.str(proposer.str());
  w.bytes(current);
  w.bytes(proposed);
  inv.arguments = std::move(w).take();
  const auto result = component_->handle(inv);
  return result.ok() && result.payload.size() == 1 && result.payload[0] == 1;
}

B2BObjectController::B2BObjectController(Coordinator& coordinator,
                                         membership::MembershipService& membership,
                                         SharingConfig config)
    : coordinator_(&coordinator), membership_(&membership), config_(config) {}

Status B2BObjectController::host(const ObjectId& object, Bytes initial_state) {
  if (!membership_->has_group(object)) {
    return Error::make("sharing.no_group", "create membership group before hosting");
  }
  coordinator_->evidence().states().put(initial_state);
  util::WriteLock lock(mu_);
  objects_[object] = SharedObjectState{std::move(initial_state), 1};
  return Status::ok_status();
}

bool B2BObjectController::hosts(const ObjectId& object) const {
  util::ReadLock lock(mu_);
  return objects_.contains(object);
}

bool B2BObjectController::in_rollup(const ObjectId& object) const {
  util::ReadLock lock(mu_);
  return staging_.contains(object);
}

Result<SharedObjectState> B2BObjectController::get(const ObjectId& object) const {
  util::ReadLock lock(mu_);
  auto it = objects_.find(object);
  if (it == objects_.end()) return Error::make("sharing.not_hosted", object.str());
  return it->second;
}

void B2BObjectController::add_validator(const ObjectId& object,
                                        std::shared_ptr<StateValidator> validator) {
  util::WriteLock lock(mu_);
  validators_[object].push_back(std::move(validator));
}

Result<membership::View> B2BObjectController::view_of(const ObjectId& object) const {
  return membership_->view(object);
}

Bytes B2BObjectController::proposal_subject(const Round& round, const RunId& run) const {
  BinaryWriter w;
  w.str("nr.sharing.proposal");
  w.str(run.str());
  w.bytes(encode_round(round.kind, round.object, round.base_version, round.payload));
  return std::move(w).take();
}

Bytes B2BObjectController::vote_subject(const Round& round, const RunId& run,
                                        bool accept) const {
  BinaryWriter w;
  w.str("nr.sharing.vote");
  w.str(run.str());
  w.u8(accept ? 1 : 0);
  w.bytes(crypto::Sha256::hash(
      encode_round(round.kind, round.object, round.base_version, round.payload)));
  return std::move(w).take();
}

Bytes B2BObjectController::decision_subject(const Round& round, const RunId& run,
                                            bool commit) const {
  BinaryWriter w;
  w.str("nr.sharing.decision");
  w.str(run.str());
  w.u8(commit ? 1 : 0);
  w.bytes(crypto::Sha256::hash(
      encode_round(round.kind, round.object, round.base_version, round.payload)));
  return std::move(w).take();
}

bool B2BObjectController::validate_round_locked(const Round& round,
                                                const PartyId& proposer) const {
  const auto obj = objects_.find(round.object);
  const BytesView current =
      obj != objects_.end() ? BytesView(obj->second.state) : BytesView{};

  if (round.kind == RoundKind::kState) {
    auto it = validators_.find(round.object);
    if (it == validators_.end()) return true;
    return std::all_of(it->second.begin(), it->second.end(), [&](const auto& v) {
      return v->validate(round.object, proposer, current, round.payload);
    });
  }

  // Membership rounds: the proposed view must be a version+1 successor of
  // the current view differing by exactly one member.
  auto current_view = view_of(round.object);
  if (!current_view) return false;
  auto next = decode_view(round.payload);
  if (!next) return false;
  if (next.value().version != current_view.value().version + 1) return false;
  const auto& cur = current_view.value().members;
  const auto& nxt = next.value().members;
  const std::size_t expected =
      round.kind == RoundKind::kConnect ? cur.size() + 1 : cur.size() - 1;
  if (nxt.size() != expected) return false;
  // Every retained member must be unchanged.
  for (const auto& [party, address] : (round.kind == RoundKind::kConnect ? cur : nxt)) {
    const auto& superset = round.kind == RoundKind::kConnect ? nxt : cur;
    auto found = superset.find(party);
    if (found == superset.end() || found->second != address) return false;
  }
  // Application validators may veto membership changes too.
  auto it = validators_.find(round.object);
  if (it != validators_.end()) {
    return std::all_of(it->second.begin(), it->second.end(), [&](const auto& v) {
      return v->validate(round.object, proposer, current, round.payload);
    });
  }
  return true;
}

Status B2BObjectController::apply_round_locked(const Round& round, const RunId& /*run*/) {
  switch (round.kind) {
    case RoundKind::kState: {
      auto it = objects_.find(round.object);
      if (it == objects_.end()) return Error::make("sharing.not_hosted", round.object.str());
      coordinator_->evidence().states().put(round.payload);
      it->second.state = round.payload;
      it->second.version = round.base_version + 1;
      return Status::ok_status();
    }
    case RoundKind::kConnect:
    case RoundKind::kDisconnect: {
      auto next = decode_view(round.payload);
      if (!next) return next.error();
      if (auto ok = membership_->apply_change(round.object, next.value()); !ok) return ok;
      // If we were disconnected, drop the replica.
      if (round.kind == RoundKind::kDisconnect &&
          !next.value().contains(coordinator_->party())) {
        objects_.erase(round.object);
      }
      return Status::ok_status();
    }
  }
  return Error::make("sharing.internal", "unreachable");
}

Result<std::uint64_t> B2BObjectController::coordinate(Round round) {
  EvidenceService& ev = coordinator_->evidence();
  rounds_started_.fetch_add(1, std::memory_order_relaxed);

  auto view = view_of(round.object);
  if (!view) return view.error();

  const TimeMs now = ev.clock().now();
  const RunId run = ev.new_run();
  {
    // Validate and acquire the proposal lock in one critical section, then
    // release mu_ before any network traffic (vote collection blocks).
    util::WriteLock lock(mu_);
    // Freshness recheck under the lock: the base version was read before
    // we serialised on mu_, and remote voters cannot veto a stale base
    // when there are none (single-member group) — a racing commit in the
    // window would otherwise be silently overwritten.
    if (round.kind == RoundKind::kState) {
      auto it = objects_.find(round.object);
      if (it == objects_.end() || it->second.version != round.base_version) {
        return Error::make("sharing.stale_version", "replica advanced past the proposal base");
      }
    } else if (auto current_view = view_of(round.object);
               !current_view || current_view.value().version != round.base_version) {
      return Error::make("sharing.stale_version", "view advanced past the proposal base");
    }
    if (!validate_round_locked(round, ev.self())) {
      return Error::make("sharing.local_validation", "own validators reject the proposal");
    }
    if (auto held = locks_.find(round.object);
        held != locks_.end() && held->second.expires > now && held->second.run != run) {
      return Error::make("sharing.busy", "another round is in progress");
    }
    locks_[round.object] = Lock{run, now + config_.lock_lease, std::nullopt};
  }

  auto proposal = ev.issue(EvidenceType::kProposal, run, proposal_subject(round, run));
  if (!proposal) return proposal.error();

  ProtocolMessage propose;
  propose.protocol = kSharingProtocol;
  propose.run = run;
  propose.step = kStepPropose;
  propose.sender = ev.self();
  propose.body = encode_round(round.kind, round.object, round.base_version, round.payload);
  propose.tokens.push_back(proposal.value());

  // Collect signed votes from every other required member (§3.3 point 2).
  std::vector<EvidenceToken> votes;
  bool all_accept = true;
  for (const auto& [party, address] : view.value().members) {
    if (party == ev.self()) continue;
    if (!is_required_voter(round.kind, round.payload, party)) continue;
    auto reply = coordinator_->deliver_request(address, propose, config_.vote_timeout);
    if (!reply) {
      all_accept = false;  // silence is not agreement
      continue;
    }
    BinaryReader r(reply.value().body);
    auto accept_byte = r.u8();
    const bool accept = accept_byte && accept_byte.value() == 1;
    auto vote = reply.value().token(EvidenceType::kVote);
    if (!vote || vote.value().issuer != party ||
        !ev.accept(vote.value(), vote_subject(round, run, accept))) {
      all_accept = false;
      continue;
    }
    votes.push_back(std::move(vote).take());
    if (!accept) all_accept = false;
  }
  // Our own vote (logged like any other member's).
  auto own_vote = ev.issue(EvidenceType::kVote, run, vote_subject(round, run, true));
  if (!own_vote) return own_vote.error();
  votes.push_back(std::move(own_vote).take());

  const bool commit = all_accept &&
                      votes.size() == required_votes(round.kind, round.payload,
                                                     view.value());

  // Sign and fan out the collective decision (§3.3 point 3).
  auto decision = ev.issue(EvidenceType::kDecision, run, decision_subject(round, run, commit));
  if (!decision) return decision.error();

  ProtocolMessage decide;
  decide.protocol = kSharingProtocol;
  decide.run = run;
  decide.step = kStepDecide;
  decide.sender = ev.self();
  {
    BinaryWriter w;
    w.bytes(propose.body);
    w.u8(commit ? 1 : 0);
    decide.body = std::move(w).take();
  }
  decide.tokens.push_back(proposal.value());
  decide.tokens.push_back(decision.value());
  for (const auto& v : votes) decide.tokens.push_back(v);

  Status sent = Status::ok_status();
  for (const auto& [party, address] : view.value().members) {
    if (party == ev.self()) continue;
    sent = coordinator_->deliver(address, decide);
    if (!sent) break;  // the decision is not durable: it goes nowhere
  }

  {
    util::WriteLock lock(mu_);
    // Release only our own lock: a round that overran its lease may find a
    // newer round legitimately holding the object (mirrors process()).
    if (auto held = locks_.find(round.object);
        held != locks_.end() && held->second.run == run) {
      locks_.erase(held);
    }
    if (!sent) return sent.error();
    if (!commit) {
      return Error::make("sharing.rejected", "update was not unanimously agreed");
    }
    if (auto ok = apply_round_locked(round, run); !ok) return ok.error();
  }
  rounds_committed_.fetch_add(1, std::memory_order_relaxed);
  return round.base_version + 1;
}

Result<std::uint64_t> B2BObjectController::propose_update(const ObjectId& object,
                                                          Bytes new_state) {
  std::uint64_t base_version = 0;
  {
    util::ReadLock lock(mu_);
    auto it = objects_.find(object);
    if (it == objects_.end()) return Error::make("sharing.not_hosted", object.str());
    base_version = it->second.version;
  }
  return coordinate(Round{RoundKind::kState, object, base_version, std::move(new_state)});
}

Status B2BObjectController::begin_changes(const ObjectId& object) {
  util::WriteLock lock(mu_);
  auto it = objects_.find(object);
  if (it == objects_.end()) return Error::make("sharing.not_hosted", object.str());
  if (staging_.contains(object)) {
    return Error::make("sharing.rollup_active", "begin_changes already called");
  }
  staging_[object] = it->second.state;
  return Status::ok_status();
}

Status B2BObjectController::stage(const ObjectId& object, Bytes working_state) {
  util::WriteLock lock(mu_);
  auto it = staging_.find(object);
  if (it == staging_.end()) {
    return Error::make("sharing.no_rollup", "begin_changes not called");
  }
  it->second = std::move(working_state);
  return Status::ok_status();
}

Result<std::uint64_t> B2BObjectController::commit_changes(const ObjectId& object) {
  Bytes staged;
  {
    util::WriteLock lock(mu_);
    auto it = staging_.find(object);
    if (it == staging_.end()) {
      return Error::make("sharing.no_rollup", "begin_changes not called");
    }
    staged = std::move(it->second);
    staging_.erase(it);
  }
  return propose_update(object, std::move(staged));
}

Status B2BObjectController::commit_abandon(const ObjectId& object) {
  util::WriteLock lock(mu_);
  if (staging_.erase(object) == 0) {
    return Error::make("sharing.no_rollup", "begin_changes not called");
  }
  return Status::ok_status();
}

Status B2BObjectController::connect(const ObjectId& object,
                                    const membership::Member& newcomer) {
  auto view = view_of(object);
  if (!view) return view.error();
  if (view.value().contains(newcomer.party)) {
    return Error::make("sharing.already_member", newcomer.party.str());
  }
  membership::View next = view.value();
  next.version += 1;
  next.members[newcomer.party] = newcomer.address;

  auto agreed = coordinate(
      Round{RoundKind::kConnect, object, view.value().version, next.canonical()});
  if (!agreed) return agreed.error();

  // Transfer state to the newcomer (one-way JOIN).
  EvidenceService& ev = coordinator_->evidence();
  SharedObjectState snapshot;
  {
    util::ReadLock lock(mu_);
    auto obj = objects_.find(object);
    if (obj == objects_.end()) return Error::make("sharing.not_hosted", object.str());
    snapshot = obj->second;
  }

  const RunId run = ev.new_run();
  BinaryWriter w;
  w.str(object.str());
  w.bytes(next.canonical());
  w.bytes(snapshot.state);
  w.u64(snapshot.version);
  Bytes join_body = std::move(w).take();

  auto connect_token = ev.issue(EvidenceType::kConnect, run, join_body);
  if (!connect_token) return connect_token.error();

  ProtocolMessage join;
  join.protocol = kSharingProtocol;
  join.run = run;
  join.step = kStepJoin;
  join.sender = ev.self();
  join.body = std::move(join_body);
  join.tokens.push_back(std::move(connect_token).take());
  return coordinator_->deliver(newcomer.address, join);
}

Status B2BObjectController::disconnect(const ObjectId& object, const PartyId& leaver) {
  auto view = view_of(object);
  if (!view) return view.error();
  if (!view.value().contains(leaver)) {
    return Error::make("sharing.not_a_member", leaver.str());
  }
  membership::View next = view.value();
  next.version += 1;
  next.members.erase(leaver);

  auto agreed = coordinate(
      Round{RoundKind::kDisconnect, object, view.value().version, next.canonical()});
  if (!agreed) return agreed.error();
  return Status::ok_status();
}

Result<ProtocolMessage> B2BObjectController::process_request(const net::Address& /*from*/,
                                                             const ProtocolMessage& msg) {
  if (msg.step != kStepPropose) {
    return Error::make("sharing.bad_step", std::to_string(msg.step));
  }
  EvidenceService& ev = coordinator_->evidence();

  BinaryReader r(msg.body);
  auto decoded = decode_round(r);
  if (!decoded) return decoded.error();
  Round round{decoded.value().kind, decoded.value().object, decoded.value().base_version,
              decoded.value().payload};

  // Attribution (§3.3 point 1): verify & archive the proposer's token.
  auto proposal = msg.token(EvidenceType::kProposal);
  if (!proposal) return proposal.error();
  if (proposal.value().issuer != msg.sender) {
    return Error::make("sharing.proposer_mismatch", msg.sender.str());
  }
  if (auto ok = ev.accept(proposal.value(), proposal_subject(round, msg.run)); !ok) {
    return ok.error();
  }

  // Validation: version freshness, lock availability, app validators —
  // checked and recorded in one critical section so a racing proposal for
  // the same object cannot slip between the check and the lock grant.
  bool accept = true;
  const TimeMs now = ev.clock().now();
  {
    util::WriteLock lock(mu_);
    if (round.kind == RoundKind::kState) {
      auto it = objects_.find(round.object);
      accept = it != objects_.end() && it->second.version == round.base_version;
    } else {
      auto view = view_of(round.object);
      accept = view.ok() && view.value().version == round.base_version &&
               view.value().contains(msg.sender);
    }
    if (accept) {
      if (auto held = locks_.find(round.object);
          held != locks_.end() && held->second.expires > now &&
          held->second.run != msg.run) {
        accept = false;  // busy: another round holds the object
      }
    }
    if (accept) accept = validate_round_locked(round, msg.sender);

    if (accept) {
      locks_[round.object] = Lock{msg.run, now + config_.lock_lease, std::nullopt};
    }
  }

  auto vote = ev.issue(EvidenceType::kVote, msg.run, vote_subject(round, msg.run, accept));
  if (!vote) return vote.error();
  if (accept) {
    util::WriteLock lock(mu_);
    if (auto held = locks_.find(round.object);
        held != locks_.end() && held->second.run == msg.run) {
      held->second.vote = vote.value();
    }
  }

  ProtocolMessage reply;
  reply.protocol = kSharingProtocol;
  reply.run = msg.run;
  reply.step = kStepPropose + 10;  // vote reply
  reply.sender = ev.self();
  BinaryWriter body;
  body.u8(accept ? 1 : 0);
  reply.body = std::move(body).take();
  reply.tokens.push_back(std::move(vote).take());
  return reply;
}

void B2BObjectController::process(const net::Address& /*from*/, const ProtocolMessage& msg) {
  EvidenceService& ev = coordinator_->evidence();

  if (msg.step == kStepJoin) {
    // Newcomer state transfer after an agreed connect round.
    auto connect_token = msg.token(EvidenceType::kConnect);
    if (!connect_token) return;
    if (!ev.accept(connect_token.value(), msg.body)) return;

    BinaryReader r(msg.body);
    auto object = r.str();
    if (!object) return;
    auto view_bytes = r.bytes();
    if (!view_bytes) return;
    auto state = r.bytes();
    if (!state) return;
    auto version = r.u64();
    if (!version) return;
    auto view = decode_view(view_bytes.value());
    if (!view) return;

    const ObjectId id(object.value());
    if (!membership_->has_group(id)) {
      std::vector<membership::Member> members;
      for (const auto& [party, address] : view.value().members) {
        members.push_back({party, address});
      }
      membership_->create_group(id, members);
      // create_group starts at version 1; fast-forward to the agreed view.
      membership::View target = view.value();
      while (true) {
        auto current = membership_->view(id);
        if (!current || current.value().version >= target.version) break;
        membership::View step_view = target;
        step_view.version = current.value().version + 1;
        if (!membership_->apply_change(id, step_view)) break;
      }
    }
    ev.states().put(state.value());
    util::WriteLock lock(mu_);
    objects_[id] = SharedObjectState{state.value(), version.value()};
    return;
  }

  if (msg.step != kStepDecide) return;

  BinaryReader r(msg.body);
  auto round_bytes = r.bytes();
  if (!round_bytes) return;
  auto outcome = r.u8();
  if (!outcome) return;
  const bool commit = outcome.value() == 1;
  BinaryReader round_reader(round_bytes.value());
  auto decoded = decode_round(round_reader);
  if (!decoded) return;

  Round round{decoded.value().kind, decoded.value().object, decoded.value().base_version,
              decoded.value().payload};

  // Verify the proposer's decision token and archive it.
  auto decision = msg.token(EvidenceType::kDecision);
  if (!decision) return;
  if (!ev.accept(decision.value(), decision_subject(round, msg.run, commit))) return;

  bool apply = false;
  if (commit) {
    // Safety: apply only when every member's accept vote verifies and is
    // staged as evidence (§3.3 point 3 — the collective decision is
    // available to all); a vote that cannot be archived does not count.
    // Signature checks run outside mu_ — they are the expensive part and
    // touch only the thread-safe evidence services.
    auto view = view_of(round.object);
    if (!view) return;
    // Our own accept vote was signed and logged at issue: the very token we
    // issued for this run counts without a second check or record, if it
    // covers this round. Any other vote in our name — a different round
    // under the same run, a forged signature — is checked like any other.
    std::optional<EvidenceToken> own_vote;
    {
      util::ReadLock lock(mu_);
      auto held = locks_.find(round.object);
      if (held != locks_.end() && held->second.run == msg.run) own_vote = held->second.vote;
    }
    const Bytes accept_subject = vote_subject(round, msg.run, true);
    const crypto::Digest accept_digest = crypto::Sha256::hash(accept_subject);
    std::set<PartyId> verified_accepts;
    for (const auto& token : msg.tokens) {
      if (token.type != EvidenceType::kVote) continue;
      if (!view.value().contains(token.issuer)) continue;  // strangers don't count
      if (own_vote && token == *own_vote && token.subject == accept_digest) {
        verified_accepts.insert(token.issuer);
      } else if (ev.accept(token, accept_subject)) {
        verified_accepts.insert(token.issuer);
      }
    }
    apply =
        verified_accepts.size() >= required_votes(round.kind, round.payload, view.value());
  }

  util::WriteLock lock(mu_);
  if (apply) {
    // Freshness recheck, mirroring the proposer path: if our vote's lock
    // lease expired and another round already committed past this round's
    // base, applying the late decision would overwrite the newer state.
    if (round.kind == RoundKind::kState) {
      auto it = objects_.find(round.object);
      apply = it != objects_.end() && it->second.version == round.base_version;
    } else {
      auto current_view = view_of(round.object);
      apply = current_view.ok() && current_view.value().version == round.base_version;
    }
  }
  if (apply) (void)apply_round_locked(round, msg.run);
  auto held = locks_.find(round.object);
  if (held != locks_.end() && held->second.run == msg.run) locks_.erase(held);
}

container::InvocationResult RollupInterceptor::invoke(container::Invocation& inv,
                                                      container::InterceptorChain& next) {
  using container::InvocationResult;
  using container::Outcome;

  if (!rollup_methods_.contains(inv.method)) {
    return next.proceed(inv);  // not a roll-up facade method
  }
  if (auto begun = controller_->begin_changes(object_); !begun) {
    return InvocationResult::failure(Outcome::kNotExecuted, begun.error().code);
  }
  InvocationResult result = next.proceed(inv);
  if (!result.ok()) {
    // Abandon the staged changes: commit never runs, staging is dropped.
    (void)controller_->commit_abandon(object_);
    return result;
  }
  auto agreed = controller_->commit_changes(object_);
  if (!agreed) {
    return InvocationResult::failure(Outcome::kFailure,
                                     "roll-up vetoed: " + agreed.error().code);
  }
  return result;
}

container::InvocationResult B2BObjectInterceptor::invoke(container::Invocation& inv,
                                                         container::InterceptorChain& next) {
  using container::InvocationResult;
  using container::Outcome;

  auto current = controller_->get(object_);
  if (!current) {
    return InvocationResult::failure(Outcome::kNotExecuted, current.error().code);
  }

  InvocationResult result = next.proceed(inv);
  if (!result.ok()) return result;

  auto after = controller_->get(object_);
  if (!after) {
    return InvocationResult::failure(Outcome::kFailure, after.error().code);
  }
  // Reads pass through; writes must be agreed by the group. The component
  // mutated only its local working copy — fetch it via the controller's
  // staging area or compare payloads.
  if (result.payload == current.value().state || result.payload.empty()) {
    return result;  // no state change
  }

  if (controller_->in_rollup(object_)) {
    if (auto staged = controller_->stage(object_, result.payload); !staged) {
      return InvocationResult::failure(Outcome::kFailure, staged.error().code);
    }
    return result;
  }

  auto agreed = controller_->propose_update(object_, result.payload);
  if (!agreed) {
    return InvocationResult::failure(Outcome::kFailure,
                                     "update vetoed: " + agreed.error().code);
  }
  return result;
}

}  // namespace nonrep::core
