#include "core/evidence.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>

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

namespace {

// Kind strings by type value, built once: appends and log scans compare
// against these instead of concatenating a string per call. Slot 0 holds
// the kind of an out-of-range type.
constexpr std::size_t kKindSlots = static_cast<std::size_t>(EvidenceType::kAffidavit) + 1;
using KindTable = std::array<std::string, kKindSlots>;

KindTable kind_table(std::string_view prefix) {
  KindTable table;
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = std::string(prefix) + to_string(static_cast<EvidenceType>(i));
  }
  return table;
}

std::size_t kind_index(EvidenceType t) {
  const auto v = static_cast<std::size_t>(t);
  return v < kKindSlots ? v : 0;
}

// The tbs() fields, shared by tbs() and encode() so both write them
// straight into their own buffer.
std::size_t tbs_size(const EvidenceToken& t) noexcept {
  return kU8Size + prefixed_size(t.run.str().size()) + prefixed_size(t.issuer.str().size()) +
         kU64Size + prefixed_size(t.subject.size());
}

void write_tbs(BinaryWriter& w, const EvidenceToken& t) {
  w.u8(static_cast<std::uint8_t>(t.type));
  w.str(t.run.str());
  w.str(t.issuer.str());
  w.u64(t.issued_at);
  w.bytes(t.subject);
}

}  // namespace

const std::string& log_kind(EvidenceType t) {
  static const KindTable table = kind_table("token.");
  return table[kind_index(t)];
}

const std::string& tsa_log_kind(EvidenceType t) {
  static const KindTable table = kind_table("tsa.");
  return table[kind_index(t)];
}

Bytes EvidenceToken::tbs() const {
  BinaryWriter w(tbs_size(*this));
  write_tbs(w, *this);
  return std::move(w).take();
}

std::size_t EvidenceToken::encoded_size() const noexcept {
  return prefixed_size(tbs_size(*this)) + prefixed_size(signature.size());
}

void EvidenceToken::encode_into(BinaryWriter& w) const {
  w.u32(static_cast<std::uint32_t>(tbs_size(*this)));
  write_tbs(w, *this);
  w.bytes(signature);
}

Bytes EvidenceToken::encode() const {
  BinaryWriter w(encoded_size());
  encode_into(w);
  return std::move(w).take();
}

Result<EvidenceToken> EvidenceToken::decode(BytesView b) {
  BinaryReader outer(b);
  auto tbs_bytes = outer.bytes_view();
  if (!tbs_bytes) return tbs_bytes.error();
  auto sig = outer.bytes_view();
  if (!sig) return sig.error();

  BinaryReader r(tbs_bytes.value());
  EvidenceToken token;
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() < 1 || type.value() > 11) {
    return Error::make("evidence.bad_type", std::to_string(type.value()));
  }
  token.type = static_cast<EvidenceType>(type.value());
  auto run = r.str_view();
  if (!run) return run.error();
  token.run = RunId(std::string(run.value()));
  auto issuer = r.str_view();
  if (!issuer) return issuer.error();
  token.issuer = PartyId(std::string(issuer.value()));
  auto at = r.u64();
  if (!at) return at.error();
  token.issued_at = at.value();
  auto digest = r.bytes_view();
  if (!digest) return digest.error();
  if (!crypto::digest_from_bytes(digest.value(), token.subject)) {
    return Error::make("evidence.bad_digest", "wrong digest length");
  }
  token.signature.assign(sig.value().begin(), sig.value().end());
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
  // One encoding serves the TSA and the log: the TSA countersigns it before
  // the log takes it over. The token record is staged first, then its
  // countersignature; the message that carries the token waits for both at
  // the send.
  Bytes encoded = token.encode();
  std::optional<Result<Bytes>> stamp;
  if (tsa_) stamp = tsa_->countersign(encoded);
  const auto receipt = log_->append_async(run, log_kind(type), std::move(encoded));
  if (auto s = fail_if_refused(*log_, receipt); !s) return s.error();
  if (stamp && stamp->ok()) {
    const auto stamp_receipt =
        log_->append_async(run, tsa_log_kind(type), std::move(*stamp).take());
    if (auto s = fail_if_refused(*log_, stamp_receipt); !s) return s.error();
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
  auto verified = credentials_->verify_signature(token.issuer, token.tbs(), token.signature,
                                                 clock_->now());
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
  const auto receipt = log_->append_async(token.run, log_kind(token.type), token.encode());
  return fail_if_refused(*log_, receipt);
}

std::size_t EvidenceService::segment_memo_size() const {
  util::ReadLock lk(audit_mu_);
  return segment_memo_.size();
}

EvidenceService::LogAuditReport EvidenceService::audit_log(
    const store::EvidenceLog& log, const LogAuditOptions& options) const {
  using Window = pki::CredentialManager::ValidityWindow;
  LogAuditReport report;
  const std::vector<store::LogRecord>& records = log.records();
  const TimeMs at = clock_->now();
  const std::uint64_t epoch = credentials_->trust_epoch();
  const std::size_t seg_len = std::max<std::size_t>(options.segment_records, 1);

  // Tokens verified during this pass, by SHA-256 of the logged payload: a
  // token repeated across the log is decoded and verified once.
  std::unordered_map<crypto::Digest, Window, crypto::DigestHash> verified_tokens;
  crypto::Digest prev{};
  Status verdict = Status::ok_status();

  for (std::size_t begin = 0; begin < records.size() && verdict.ok(); begin += seg_len) {
    const std::size_t end = std::min(begin + seg_len, records.size());
    ++report.segments;
    const store::LogRecord& tail = records[end - 1];

    // Probe the memo by the segment's tail chain digest. chain_i commits to
    // every record before it, so one match (under the current trust epoch,
    // at a covered time, with the same span) re-establishes the whole
    // segment — and its prefix — without token decode or signature work.
    bool memoized = false;
    {
      util::ReadLock lk(audit_mu_);
      auto it = segment_memo_.find(tail.chain);
      memoized = it != segment_memo_.end() && it->second.epoch == epoch &&
                 it->second.window.covers(at) &&
                 it->second.first_sequence == records[begin].sequence &&
                 it->second.record_count == end - begin;
    }

    // The hash chain is recomputed either way: the memo key (the tail
    // digest) was read from the very records it vouches for, so without the
    // rehash a tampered interior record paired with its stale tail digest
    // would pass. Token signatures are verified only on a memo miss.
    Window window{0, std::numeric_limits<TimeMs>::max()};
    for (std::size_t i = begin; i < end; ++i) {
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
        if (!memoized) {
          const crypto::Digest key = crypto::Sha256::hash(rec.payload);
          auto it = verified_tokens.find(key);
          if (it == verified_tokens.end()) {
            auto token = EvidenceToken::decode(rec.payload);
            if (!token) {
              verdict = Error::make("audit.bad_token", "record " + std::to_string(i) + ": " +
                                                           token.error().code);
              break;
            }
            auto verified = credentials_->verify_signature(token->issuer, token->tbs(),
                                                           token->signature, at);
            if (!verified) {
              verdict = Error::make("audit.bad_signature", "record " + std::to_string(i) +
                                                               ": " + verified.error().code);
              break;
            }
            it = verified_tokens.emplace(key, verified.value()).first;
            ++report.distinct_tokens;
          }
          window.not_before = std::max(window.not_before, it->second.not_before);
          window.not_after = std::min(window.not_after, it->second.not_after);
        }
      }
      ++report.records;
    }
    if (!verdict.ok()) break;
    if (memoized) {
      ++report.segments_memoized;
      continue;
    }

    util::WriteLock lk(audit_mu_);
    if (segment_memo_.size() >= kSegmentMemoMax) segment_memo_.clear();
    segment_memo_.insert_or_assign(
        tail.chain, SegmentMemo{epoch, window, records[begin].sequence,
                                static_cast<std::uint64_t>(end - begin)});
  }

  report.verdict = std::move(verdict);
  return report;
}

}  // namespace nonrep::core
