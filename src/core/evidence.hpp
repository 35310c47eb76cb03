// Non-repudiation evidence model (§3.2, §3.4).
//
// "Non-repudiation tokens include a unique request identifier, to
// distinguish between protocol runs and to bind protocol steps to a run,
// and a signature on a secure hash of the evidence generated."
//
// A token = (type, run, issuer, time, digest-of-subject, signature over
// all of those). The *subject* is the canonical byte snapshot the token
// attests to — a request, a response, a proposed state — resolved per the
// three rules of §3.4. Verification resolves the issuer's certificate
// through the credential manager (chain + revocation + validity).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/lock_discipline.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "pki/credential_manager.hpp"
#include "store/evidence_log.hpp"
#include "store/state_store.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace nonrep {
class BinaryWriter;
}

namespace nonrep::util {
class ThreadPool;
}

namespace nonrep::core {

enum class EvidenceType : std::uint8_t {
  kNroRequest = 1,   // non-repudiation of origin of the request
  kNrrRequest = 2,   // non-repudiation of receipt of the request
  kNroResponse = 3,  // non-repudiation of origin of the response
  kNrrResponse = 4,  // non-repudiation of receipt of the response
  kProposal = 5,     // origin of a proposed update to shared state (§3.3)
  kVote = 6,         // a party's validation decision on a proposal (§3.3)
  kDecision = 7,     // the collective decision on a proposal (§3.3)
  kConnect = 8,      // membership join agreement
  kDisconnect = 9,   // membership leave agreement
  kAbort = 10,       // TTP-signed abort of a fair-exchange run
  kAffidavit = 11,   // TTP-signed substitute receipt (resolve outcome)
};

std::string to_string(EvidenceType t);
const std::string& log_kind(EvidenceType t);      // kind string used in the evidence log
const std::string& tsa_log_kind(EvidenceType t);  // kind of the TSA countersignature record

/// Abstract countersigning hook (implemented by tsa::TimestampAuthority
/// via the adapter in tsa/timestamp.hpp; kept abstract here to avoid a
/// core -> tsa dependency cycle).
class TimestampHook {
 public:
  virtual ~TimestampHook() = default;
  /// Returns the encoded timestamp token over `data`.
  virtual Result<Bytes> countersign(BytesView data) = 0;
};

struct EvidenceToken {
  EvidenceType type{};
  RunId run;
  PartyId issuer;
  TimeMs issued_at = 0;
  crypto::Digest subject{};  // SHA-256 of the canonical subject bytes
  Bytes signature;           // issuer's signature over tbs()

  bool operator==(const EvidenceToken&) const = default;

  Bytes tbs() const;
  Bytes encode() const;
  static Result<EvidenceToken> decode(BytesView b);

  /// Size of encode()'s output, and encode() appended to `w` — for
  /// encoders that embed tokens (ProtocolMessage) in their own buffer.
  std::size_t encoded_size() const noexcept;
  void encode_into(BinaryWriter& w) const;
};

/// One signed evidence record together with the subject bytes its digest
/// is claimed to cover — the unit of batched verification (and of a
/// presented dispute bundle, core/dispute.hpp).
struct EvidenceCheck {
  EvidenceToken token;
  Bytes subject;
};

/// Per-party evidence services: token issue/verify plus the persistence
/// duties of assumption 3 (every issued and accepted token is logged; the
/// subject state is stored digest-addressed so evidence can be rendered
/// meaningful later, §3.4).
class EvidenceService {
 public:
  EvidenceService(PartyId self, std::shared_ptr<crypto::Signer> signer,
                  std::shared_ptr<pki::CredentialManager> credentials,
                  std::shared_ptr<store::EvidenceLog> log,
                  std::shared_ptr<store::StateStore> states,
                  std::shared_ptr<Clock> clock, std::uint64_t rng_seed);

  const PartyId& self() const noexcept { return self_; }
  pki::CredentialManager& credentials() noexcept { return *credentials_; }
  const pki::CredentialManager& credentials() const noexcept { return *credentials_; }
  store::EvidenceLog& log() noexcept { return *log_; }
  store::StateStore& states() noexcept { return *states_; }
  Clock& clock() noexcept { return *clock_; }

  /// Fresh statistically-unique run identifier (§3.5 PRNG requirement).
  RunId new_run();

  /// Sign a token over `subject`; stores the subject in the state store
  /// and stages the token (and its TSA countersignature) in the evidence
  /// log without waiting for durability: the message that carries the
  /// token waits at the send (Coordinator, EvidenceLog::barrier). Fails
  /// closed when a record is refused outright (staging error, crashed
  /// writer): the persistence error is returned and no token is released.
  Result<EvidenceToken> issue(EvidenceType type, const RunId& run, BytesView subject);

  /// Verify a received token against the claimed subject bytes; on success
  /// the token and subject are staged for persistence (log + state store),
  /// durable before this party's next send. A refused record is returned
  /// like a verification failure.
  Status accept(const EvidenceToken& token, BytesView subject);

  /// Verification only (no persistence side effects): the subject digest
  /// check, then the issuer's chain (validity, revocation) and signature
  /// through the credential manager.
  Status verify(const EvidenceToken& token, BytesView subject) const;

  /// Batched verification: fan the records across `pool` (RSA signature
  /// checks dominate, so throughput scales with workers) and join the
  /// per-record verdicts, index-aligned with `items`. With a null pool it
  /// degrades to a sequential loop — same results, same order. Used by
  /// audit-style log validation and the dispute path.
  std::vector<Status> verify_batch(const std::vector<EvidenceCheck>& items,
                                   util::ThreadPool* pool = nullptr) const;

  /// Attach a time-stamping authority: every subsequently *issued* token
  /// is countersigned by the TSA and the timestamp token logged alongside
  /// it (§3.5: evidence "should be time-stamped ... to support the
  /// assertion that the signature used to sign evidence was not
  /// compromised at time of use"). Optional — parties using the
  /// forward-secure Merkle scheme may omit it ([25]).
  void set_timestamp_authority(std::shared_ptr<TimestampHook> tsa) {
    tsa_ = std::move(tsa);
  }

  /// The logged TSA countersignature for a token this party issued.
  Result<Bytes> timestamp_record(const RunId& run, EvidenceType type) const;

  struct LogAuditOptions {
    /// Records per chain segment (memoization granularity).
    std::size_t segment_records = 1024;
  };

  struct LogAuditReport {
    std::uint64_t records = 0;
    std::uint64_t token_records = 0;
    std::uint64_t segments = 0;
    std::uint64_t segments_memoized = 0;  // accepted via the segment memo
    std::uint64_t distinct_tokens = 0;    // distinct token payloads verified this pass
    Status verdict = Status::ok_status();
  };

  /// Full audit of an evidence log: recompute and check the hash chain,
  /// verify every token signature (each distinct payload once per pass, so
  /// a token logged many times costs one verification), and intersect
  /// validity windows per chain segment of `segment_records` records.
  ///
  /// Verified segments are memoized by their *tail* chain digest, which by
  /// chain construction commits to every record before it: a re-audit of an
  /// unchanged log skips all token decoding and signature work, and — the
  /// memo key is itself read from the records under audit, so it proves
  /// nothing by itself — recomputes just the hash chain to tie the bytes
  /// to the key, so an in-process mutation of an already-audited record is
  /// caught on the next pass. Entries carry the trust epoch and the
  /// segment's intersected validity window, so a root/cert/CRL change or an
  /// audit time outside the window falls back to the cold path. Like every
  /// audit-side accessor this reads log.records() unlocked — callers run it
  /// on a quiescent log.
  LogAuditReport audit_log(const store::EvidenceLog& log,
                           const LogAuditOptions& options) const;
  LogAuditReport audit_log(const store::EvidenceLog& log) const {
    return audit_log(log, LogAuditOptions{});
  }

  std::size_t segment_memo_size() const;

 private:
  PartyId self_;
  std::shared_ptr<crypto::Signer> signer_;
  std::shared_ptr<pki::CredentialManager> credentials_;
  std::shared_ptr<store::EvidenceLog> log_;
  std::shared_ptr<store::StateStore> states_;
  std::shared_ptr<Clock> clock_;
  util::Mutex rng_mu_{util::LockRank::kEvidenceRng, "core.evidence.rng"};
  crypto::Drbg rng_ NONREP_GUARDED_BY(rng_mu_);
  std::shared_ptr<TimestampHook> tsa_;

  // Segment memo for audit_log. Bounded; overflow clears wholesale (the
  // memo refills from the audits it accelerates). shared_mutex: concurrent
  // audits probe under the shared lock.
  struct SegmentMemo {
    std::uint64_t epoch = 0;
    pki::CredentialManager::ValidityWindow window;
    std::uint64_t first_sequence = 0;
    std::uint64_t record_count = 0;
  };
  static constexpr std::size_t kSegmentMemoMax = 1u << 16;
  mutable util::SharedMutex audit_mu_{util::LockRank::kEvidenceAudit,
                                       "core.evidence.audit_memo"};
  mutable std::unordered_map<crypto::Digest, SegmentMemo, crypto::DigestHash> segment_memo_
      NONREP_GUARDED_BY(audit_mu_);
};

}  // namespace nonrep::core
