#include "core/evidence.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/hex.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace nonrep::core {

std::string to_string(EvidenceType t) {
  switch (t) {
    case EvidenceType::kNroRequest: return "NRO-request";
    case EvidenceType::kNrrRequest: return "NRR-request";
    case EvidenceType::kNroResponse: return "NRO-response";
    case EvidenceType::kNrrResponse: return "NRR-response";
    case EvidenceType::kProposal: return "proposal";
    case EvidenceType::kVote: return "vote";
    case EvidenceType::kDecision: return "decision";
    case EvidenceType::kConnect: return "connect";
    case EvidenceType::kDisconnect: return "disconnect";
    case EvidenceType::kAbort: return "abort";
    case EvidenceType::kAffidavit: return "affidavit";
  }
  return "unknown";
}

std::string log_kind(EvidenceType t) { return "token." + to_string(t); }

std::string tsa_log_kind(EvidenceType t) { return "tsa." + to_string(t); }

Bytes EvidenceToken::tbs() const {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.str(run.str());
  w.str(issuer.str());
  w.u64(issued_at);
  w.bytes(crypto::digest_bytes(subject));
  return std::move(w).take();
}

Bytes EvidenceToken::encode() const {
  BinaryWriter w;
  w.bytes(tbs());
  w.bytes(signature);
  return std::move(w).take();
}

Result<EvidenceToken> EvidenceToken::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes();
  if (!tbs_bytes) return tbs_bytes.error();
  auto sig = outer.bytes();
  if (!sig) return sig.error();

  BinaryReader r(tbs_bytes.value());
  EvidenceToken token;
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() < 1 || type.value() > 11) {
    return Error::make("evidence.bad_type", std::to_string(type.value()));
  }
  token.type = static_cast<EvidenceType>(type.value());
  auto run = r.str();
  if (!run) return run.error();
  token.run = RunId(run.value());
  auto issuer = r.str();
  if (!issuer) return issuer.error();
  token.issuer = PartyId(issuer.value());
  auto at = r.u64();
  if (!at) return at.error();
  token.issued_at = at.value();
  auto digest = r.bytes();
  if (!digest) return digest.error();
  if (!crypto::digest_from_bytes(digest.value(), token.subject)) {
    return Error::make("evidence.bad_digest", "wrong digest length");
  }
  token.signature = sig.value();
  return token;
}

EvidenceService::EvidenceService(PartyId self, std::shared_ptr<crypto::Signer> signer,
                                 std::shared_ptr<pki::CredentialManager> credentials,
                                 std::shared_ptr<store::EvidenceLog> log,
                                 std::shared_ptr<store::StateStore> states,
                                 std::shared_ptr<Clock> clock, std::uint64_t rng_seed)
    : self_(std::move(self)),
      signer_(std::move(signer)),
      credentials_(std::move(credentials)),
      log_(std::move(log)),
      states_(std::move(states)),
      clock_(std::move(clock)),
      rng_([&] {
        BinaryWriter w;
        w.str(self_.str());
        w.u64(rng_seed);
        return std::move(w).take();
      }()) {}

RunId EvidenceService::new_run() {
  util::MutexLock lk(rng_mu_);
  return RunId(to_hex(rng_.generate(16)));
}

namespace {

// issue/accept only stage their records: the write-ahead wait belongs to the
// send (Coordinator -> EvidenceLog::barrier). A receipt that has already
// failed — the backend refused the record, or the writer crashed — still
// fails the call, so evidence that can never persist is never released.
Status fail_if_refused(store::EvidenceLog& log, const store::AppendReceipt& receipt) {
  if (!receipt.durable.ready()) return Status::ok_status();
  return log.settle(receipt);
}

}  // namespace

Result<EvidenceToken> EvidenceService::issue(EvidenceType type, const RunId& run,
                                             BytesView subject) {
  EvidenceToken token;
  token.type = type;
  token.run = run;
  token.issuer = self_;
  token.issued_at = clock_->now();
  token.subject = crypto::Sha256::hash(subject);
  auto sig = signer_->sign(token.tbs());
  if (!sig) return sig.error();
  token.signature = std::move(sig).take();

  states_->put(subject);
  // Stage the token record, then its TSA countersignature. Their device
  // barrier overlaps the countersigning and whatever the caller does next;
  // the message that carries the token waits for it at the send.
  auto [rec, receipt] = log_->append_async(run, log_kind(type), token.encode());
  if (auto s = fail_if_refused(*log_, receipt); !s) return s.error();
  if (tsa_) {
    if (auto stamp = tsa_->countersign(token.encode())) {
      auto [stamp_rec, stamp_receipt] =
          log_->append_async(run, tsa_log_kind(type), std::move(stamp).take());
      if (auto s = fail_if_refused(*log_, stamp_receipt); !s) return s.error();
    }
  }
  return token;
}

Result<Bytes> EvidenceService::timestamp_record(const RunId& run, EvidenceType type) const {
  auto record = log_->find(run, tsa_log_kind(type));
  if (!record) return Error::make("evidence.no_timestamp", to_string(type));
  return record->payload;
}

Status EvidenceService::verify(const EvidenceToken& token, BytesView subject) const {
  const crypto::Digest expected = crypto::Sha256::hash(subject);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()),
                           BytesView(token.subject.data(), token.subject.size()))) {
    return Error::make("evidence.subject_mismatch",
                       to_string(token.type) + " does not cover presented subject");
  }
  // Content-address the token and go through the credential manager's
  // object memo — audit_log derives the same id from the logged payload,
  // so issue/accept/audit all share one memo entry.
  const store::ObjectId oid = store::object_id(store::kTypeToken, token.encode());
  auto verified = credentials_->verify_object(oid, token.issuer, token.tbs(),
                                              token.signature, clock_->now());
  if (!verified) return verified.error();
  return Status::ok_status();
}

std::vector<Status> EvidenceService::verify_batch(const std::vector<EvidenceCheck>& items,
                                                  util::ThreadPool* pool) const {
  std::vector<Status> verdicts(items.size(), Status::ok_status());
  util::parallel_for(pool, items.size(), [&](std::size_t i) {
    verdicts[i] = verify(items[i].token, items[i].subject);
  });
  return verdicts;
}

Status EvidenceService::accept(const EvidenceToken& token, BytesView subject) {
  if (auto v = verify(token, subject); !v) return v;
  states_->put(subject);
  auto [rec, receipt] = log_->append_async(token.run, log_kind(token.type), token.encode());
  return fail_if_refused(*log_, receipt);
}

std::size_t EvidenceService::segment_memo_size() const {
  util::ReadLock lk(audit_mu_);
  return segment_memo_.size();
}

EvidenceService::LogAuditReport EvidenceService::audit_log(
    const store::EvidenceLog& log, const LogAuditOptions& options) const {
  LogAuditReport report;
  const std::vector<store::LogRecord>& records = log.records();
  const TimeMs at = clock_->now();
  const std::uint64_t epoch = credentials_->trust_epoch();
  const std::uint64_t memo_hits_before = credentials_->memo_hits();
  const std::size_t seg_len = std::max<std::size_t>(options.segment_records, 1);

  std::unordered_set<store::ObjectId, crypto::DigestHash> distinct;
  crypto::Digest prev{};
  Status verdict = Status::ok_status();

  for (std::size_t begin = 0; begin < records.size() && verdict.ok(); begin += seg_len) {
    const std::size_t end = std::min(begin + seg_len, records.size());
    ++report.segments;
    const store::LogRecord& tail = records[end - 1];

    // Probe the memo by the segment's tail chain digest. chain_i commits to
    // every record before it, so one match (under the current trust epoch,
    // at a covered time, with the same span) re-establishes the whole
    // segment — and its prefix — without hashing or signature work.
    bool memoized = false;
    {
      util::ReadLock lk(audit_mu_);
      auto it = segment_memo_.find(tail.chain);
      memoized = it != segment_memo_.end() && it->second.epoch == epoch &&
                 it->second.window.covers(at) &&
                 it->second.first_sequence == records[begin].sequence &&
                 it->second.record_count == end - begin;
    }
    if (memoized) {
      // Memo hit: all token decode + signature work is skipped. The hash
      // chain is still recomputed — the memo key (the tail digest) was read
      // from the very records it vouches for, so without the rehash a
      // tampered interior record paired with its stale tail digest would
      // pass.
      for (std::size_t i = begin; i < end && verdict.ok(); ++i) {
        const store::LogRecord& rec = records[i];
        if (rec.sequence != i) {
          verdict = Error::make("log.sequence_gap", "at index " + std::to_string(i));
          break;
        }
        const crypto::Digest expect = store::chain_digest(prev, rec);
        if (!constant_time_equal(BytesView(expect.data(), expect.size()),
                                 BytesView(rec.chain.data(), rec.chain.size()))) {
          verdict = Error::make("log.chain_mismatch", "record " + std::to_string(i));
          break;
        }
        prev = rec.chain;
        if (rec.kind.starts_with("token.")) ++report.token_records;
        ++report.records;
      }
      if (!verdict.ok()) break;
      ++report.segments_memoized;
      continue;
    }

    // Cold path: recompute the chain, verify every token signature through
    // the object memo, memoize.
    pki::CredentialManager::ValidityWindow window{0, std::numeric_limits<TimeMs>::max()};
    for (std::size_t i = begin; i < end && verdict.ok(); ++i) {
      const store::LogRecord& rec = records[i];
      if (rec.sequence != i) {
        verdict = Error::make("log.sequence_gap", "at index " + std::to_string(i));
        break;
      }
      const crypto::Digest expect = store::chain_digest(prev, rec);
      if (!constant_time_equal(BytesView(expect.data(), expect.size()),
                               BytesView(rec.chain.data(), rec.chain.size()))) {
        verdict = Error::make("log.chain_mismatch", "record " + std::to_string(i));
        break;
      }
      prev = rec.chain;
      if (rec.kind.starts_with("token.")) {
        ++report.token_records;
        auto token = EvidenceToken::decode(rec.payload);
        if (!token) {
          verdict = Error::make("audit.bad_token",
                                "record " + std::to_string(i) + ": " + token.error().code);
          break;
        }
        const store::ObjectId oid = store::object_id(store::kTypeToken, rec.payload);
        if (distinct.insert(oid).second) ++report.distinct_tokens;
        auto verified = credentials_->verify_object(oid, token->issuer, token->tbs(),
                                                    token->signature, at);
        if (!verified) {
          verdict = Error::make("audit.bad_signature", "record " + std::to_string(i) +
                                                           ": " + verified.error().code);
          break;
        }
        window.not_before = std::max(window.not_before, verified->not_before);
        window.not_after = std::min(window.not_after, verified->not_after);
      }
      ++report.records;
    }
    if (!verdict.ok()) break;

    util::WriteLock lk(audit_mu_);
    if (segment_memo_.size() >= kSegmentMemoMax) segment_memo_.clear();
    segment_memo_.insert_or_assign(
        tail.chain, SegmentMemo{epoch, window, records[begin].sequence,
                                static_cast<std::uint64_t>(end - begin)});
  }

  // Delta of the credential memo's hit counter — exact when the audit has
  // the service to itself (the normal case), approximate under concurrent
  // verify traffic.
  report.token_memo_hits = credentials_->memo_hits() - memo_hits_before;
  report.verdict = std::move(verdict);
  return report;
}

}  // namespace nonrep::core
