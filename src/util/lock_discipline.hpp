// Lock discipline: Clang thread-safety annotations + a lockdep runtime.
//
// The concurrency invariants this codebase rests on (documented lock order,
// "never hold a lock across deliver/deliver_request", per-subsystem nesting
// like trust_mu_ -> cache_mu_/memo_mu_) used to live in comments and in
// whatever interleavings TSan happened to explore. This header makes them
// machine-checked, twice over:
//
//  1. Statically: portable macros that expand to Clang Thread Safety
//     Analysis attributes under clang (-Wthread-safety) and to nothing under
//     g++. CI builds src/ with -Wthread-safety -Werror.
//
//  2. Dynamically: annotated drop-in wrappers (nonrep::util::Mutex /
//     SharedMutex / CondVar plus scoped guards) that carry a rank from the
//     central LockRank enum below. In debug/sanitizer builds
//     (NONREP_LOCK_CHECKS=1) every acquisition is validated against a
//     per-thread held-lock stack (rank monotonicity, recursion, stripe
//     address order) and a process-global acquisition-order graph (edge A->B
//     recorded the first time B is acquired under A; cycle detection on edge
//     insert reports the full offending chain with both acquisition sites).
//     Violations abort with a readable diagnostic. Release builds
//     (NONREP_LOCK_CHECKS=0) compile the whole runtime out: the wrappers
//     are the same size as the std types they wrap (static_asserted) and
//     every method is a direct inline forward.
//
// LockRank is the single source of truth for the global lock order. Ranks
// increase inward: a thread may only acquire a lock of strictly greater
// rank than every lock it already holds. Exceptions:
//   - kUnranked locks skip the monotonicity check (they are still tracked
//     in the acquisition-order graph, so cycles among them are caught);
//   - `multi` classes (lock-striped stores, a trait the mutex is
//     constructed with) may acquire several same-class locks at equal
//     rank, provided addresses are strictly increasing -- exactly the
//     order StateStore::AllShardsLock uses.
// No lock at all may be held at Coordinator::deliver/deliver_request, a
// network upcall or the SimNetwork pump entry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops under g++/MSVC).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define NONREP_TSA(x) __attribute__((x))
#else
#define NONREP_TSA(x)
#endif

#define NONREP_CAPABILITY(x) NONREP_TSA(capability(x))
#define NONREP_SCOPED_CAPABILITY NONREP_TSA(scoped_lockable)
#define NONREP_GUARDED_BY(x) NONREP_TSA(guarded_by(x))
#define NONREP_PT_GUARDED_BY(x) NONREP_TSA(pt_guarded_by(x))
#define NONREP_ACQUIRED_BEFORE(...) NONREP_TSA(acquired_before(__VA_ARGS__))
#define NONREP_ACQUIRED_AFTER(...) NONREP_TSA(acquired_after(__VA_ARGS__))
#define NONREP_REQUIRES(...) NONREP_TSA(requires_capability(__VA_ARGS__))
#define NONREP_REQUIRES_SHARED(...) NONREP_TSA(requires_shared_capability(__VA_ARGS__))
#define NONREP_ACQUIRE(...) NONREP_TSA(acquire_capability(__VA_ARGS__))
#define NONREP_ACQUIRE_SHARED(...) NONREP_TSA(acquire_shared_capability(__VA_ARGS__))
#define NONREP_RELEASE(...) NONREP_TSA(release_capability(__VA_ARGS__))
#define NONREP_RELEASE_SHARED(...) NONREP_TSA(release_shared_capability(__VA_ARGS__))
#define NONREP_RELEASE_GENERIC(...) NONREP_TSA(release_generic_capability(__VA_ARGS__))
#define NONREP_TRY_ACQUIRE(...) NONREP_TSA(try_acquire_capability(__VA_ARGS__))
#define NONREP_EXCLUDES(...) NONREP_TSA(locks_excluded(__VA_ARGS__))
#define NONREP_ASSERT_CAPABILITY(x) NONREP_TSA(assert_capability(x))
#define NONREP_RETURN_CAPABILITY(x) NONREP_TSA(lock_returned(x))
#define NONREP_NO_THREAD_SAFETY_ANALYSIS NONREP_TSA(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Lockdep build gate. Presets pin this (debug/asan/tsan: 1, release: 0);
// a plain configure follows NDEBUG so the default tier-1 build is checked.
// ---------------------------------------------------------------------------

#ifndef NONREP_LOCK_CHECKS
#ifdef NDEBUG
#define NONREP_LOCK_CHECKS 0
#else
#define NONREP_LOCK_CHECKS 1
#endif
#endif

namespace nonrep::util {

// The global acquisition order, outermost first. A thread holding a lock of
// rank R may only acquire locks of rank > R (see header comment for the two
// exceptions). Gaps are deliberate: new locks slot in without renumbering.
enum class LockRank : std::uint16_t {
  // Not part of the static order; graph-checked only. For locks whose place
  // in the hierarchy is not yet pinned down -- prefer a real rank.
  kUnranked = 0,

  // -- Tier 1: protocol handler state (the "handler mutex" of the
  //    documented order). Never held across deliver/deliver_request.
  kHandler = 200,        // InvocationProtocol/OptimisticTtp run maps,
                         // B2BObjectController object state
  kTxnManager = 210,     // txn::TransactionManager (2PC) state
  kCoordinator = 250,    // core::Coordinator handler registry

  // -- Tier 2: membership (leaf relative to handler state).
  kMembership = 300,     // membership::MembershipService view

  // -- Tier 3: evidence + stores ("evidence leaf locks").
  kEvidenceAudit = 400,  // EvidenceService audit segment memo
  kEvidenceRng = 410,    // EvidenceService run-id DRBG
  kEvidenceLog = 420,    // store::EvidenceLog record chain
  kStateStore = 430,     // store::StateStore stripes (multi, address order)
  kObjectStore = 440,    // store::ObjectStore stripes (multi, address order)

  // -- Tier 4: PKI + crypto (trust_mu_ -> cache_mu_ -> signer ->
  //    verifier cache -> lazily built Montgomery contexts).
  kTrustRoots = 500,     // pki::CredentialManager trust_mu_
  kVerifyCache = 510,    // pki::CredentialManager cache_mu_
  kSignerState = 520,    // crypto::MerkleSchemeSigner one-time-leaf state
  kVerifierKeys = 530,   // crypto::VerifierCache decoded-key map
  kCryptoContext = 540,  // crypto RSA key Montgomery-context caches

  // -- Tier 5: durable journal (barrier request -> writer -> sync stage ->
  //    shared watermark).
  kJournalRequest = 590,  // journal::DurabilityState barrier-request hook
  kJournalWriter = 600,  // journal::Writer append state
  kJournalSync = 610,    // journal::SyncStage barrier queue
  kJournalState = 620,   // journal::DurabilityState LSN watermark

  // -- Tier 6: transport (rpc -> channel -> network pump).
  kRpc = 700,            // net::RpcEndpoint outstanding-call table
  kChannel = 710,        // net::ReliableEndpoint dedup/pending state
  kNetwork = 720,        // net::SimNetwork event queue + strands

  // -- Tier 7: executors and observability leaves (safe under any lock).
  kThreadPool = 800,     // util::ThreadPool work queue
  kObsRegistry = 900,    // obs::Registry instrument registration
  kTracer = 910,         // obs::Tracer span ring
  kLeaf = 990,           // terminal rank: must never hold anything above it
};

constexpr std::uint16_t lock_rank_value(LockRank r) noexcept {
  return static_cast<std::uint16_t>(r);
}

// Per-class behavior flags, fixed at construction.
struct LockTraits {
  // Lock-striped class: several same-class locks may be held at equal rank
  // if acquired in strictly increasing address order (AllShardsLock).
  bool multi = false;
};

namespace lockdep {

#if NONREP_LOCK_CHECKS
// Interns (name, rank, traits) and returns the class id used on the
// held-lock stack and in the acquisition-order graph. Re-registering the
// same name must use the same rank/traits (aborts otherwise).
std::uint32_t register_class(const char* name, LockRank rank, LockTraits traits);

// Validate + record an acquisition/release on the calling thread.
void note_acquire(std::uint32_t cls, const void* addr, const char* file, unsigned line);
void note_release(std::uint32_t cls, const void* addr);

// Abort with a diagnostic if the calling thread holds any lock. `where`
// names the enforcement point.
void assert_no_locks_held(const char* where);

// Test observability.
int held_count() noexcept;
#endif  // NONREP_LOCK_CHECKS

}  // namespace lockdep

#if NONREP_LOCK_CHECKS
#define NONREP_ASSERT_NO_LOCKS_HELD(where) ::nonrep::util::lockdep::assert_no_locks_held(where)
#else
#define NONREP_ASSERT_NO_LOCKS_HELD(where) ((void)0)
#endif

// ---------------------------------------------------------------------------
// Annotated, ranked wrappers. Drop-in for the std types: same blocking
// semantics, plus lockdep bookkeeping when NONREP_LOCK_CHECKS=1. The
// std::source_location defaults capture the call site for diagnostics; with
// checks off the argument is unused and inlines away.
// ---------------------------------------------------------------------------

class NONREP_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name, LockTraits traits = {})
#if NONREP_LOCK_CHECKS
      : cls_(lockdep::register_class(name, rank, traits))
#endif
  {
    (void)rank;
    (void)name;
    (void)traits;
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // note_acquire runs BEFORE the native lock: a discipline violation must
  // abort with a diagnosis, not deadlock first (the recursive and inverted
  // cases would block forever on the raw primitive before any check ran).
  void lock(const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE() {
#if NONREP_LOCK_CHECKS
    lockdep::note_acquire(cls_, this, loc.file_name(), loc.line());
#endif
    mu_.lock();
    (void)loc;
  }

  bool try_lock(const std::source_location& loc = std::source_location::current())
      NONREP_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if NONREP_LOCK_CHECKS
    lockdep::note_acquire(cls_, this, loc.file_name(), loc.line());
#endif
    (void)loc;
    return true;
  }

  void unlock() NONREP_RELEASE() {
#if NONREP_LOCK_CHECKS
    lockdep::note_release(cls_, this);
#endif
    mu_.unlock();
  }

  // The raw mutex, for CondVar's adopt-lock dance only.
  std::mutex& native() noexcept { return mu_; }

 private:
  friend class CondVar;
  std::mutex mu_;
#if NONREP_LOCK_CHECKS
  std::uint32_t cls_;
#endif
};

class NONREP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name, LockTraits traits = {})
#if NONREP_LOCK_CHECKS
      : cls_(lockdep::register_class(name, rank, traits))
#endif
  {
    (void)rank;
    (void)name;
    (void)traits;
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  // note_acquire runs BEFORE the native lock: a discipline violation must
  // abort with a diagnosis, not deadlock first (the recursive and inverted
  // cases would block forever on the raw primitive before any check ran).
  void lock(const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE() {
#if NONREP_LOCK_CHECKS
    lockdep::note_acquire(cls_, this, loc.file_name(), loc.line());
#endif
    mu_.lock();
    (void)loc;
  }

  void unlock() NONREP_RELEASE() {
#if NONREP_LOCK_CHECKS
    lockdep::note_release(cls_, this);
#endif
    mu_.unlock();
  }

  void lock_shared(const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE_SHARED() {
#if NONREP_LOCK_CHECKS
    lockdep::note_acquire(cls_, this, loc.file_name(), loc.line());
#endif
    mu_.lock_shared();
    (void)loc;
  }

  void unlock_shared() NONREP_RELEASE_SHARED() {
#if NONREP_LOCK_CHECKS
    lockdep::note_release(cls_, this);
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
#if NONREP_LOCK_CHECKS
  std::uint32_t cls_;
#endif
};

// lock_guard equivalent. Non-copyable, non-movable, always owns.
class NONREP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(loc);
  }
  ~MutexLock() NONREP_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// unique_lock equivalent: supports mid-scope unlock/relock and CondVar
// waits. TSA cannot model conditional ownership, so the mutating methods
// skip body analysis; the interface annotations still bind callers.
class NONREP_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu,
                      const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE(mu)
      : mu_(&mu), owned_(true) {
    mu_->lock(loc);
  }
  UniqueLock(Mutex& mu, std::defer_lock_t) noexcept NONREP_EXCLUDES(mu)
      : mu_(&mu), owned_(false) {}

  ~UniqueLock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    if (owned_) mu_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock(const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    mu_->lock(loc);
    owned_ = true;
  }
  void unlock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock();
    owned_ = false;
  }
  bool owns_lock() const noexcept { return owned_; }
  Mutex* mutex() const noexcept { return mu_; }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool owned_;
};

// Shared (reader) guard on SharedMutex.
class NONREP_SCOPED_CAPABILITY ReadLock {
 public:
  explicit ReadLock(SharedMutex& mu,
                    const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE_SHARED(mu)
      : mu_(&mu), owned_(true) {
    mu_->lock_shared(loc);
  }
  ~ReadLock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    if (owned_) mu_->unlock_shared();
  }

  ReadLock(const ReadLock&) = delete;
  ReadLock& operator=(const ReadLock&) = delete;

  void unlock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock_shared();
    owned_ = false;
  }
  bool owns_lock() const noexcept { return owned_; }

 private:
  SharedMutex* mu_;
  bool owned_;
};

// Exclusive (writer) guard on SharedMutex.
class NONREP_SCOPED_CAPABILITY WriteLock {
 public:
  explicit WriteLock(SharedMutex& mu,
                     const std::source_location& loc = std::source_location::current())
      NONREP_ACQUIRE(mu)
      : mu_(&mu), owned_(true) {
    mu_->lock(loc);
  }
  ~WriteLock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    if (owned_) mu_->unlock();
  }

  WriteLock(const WriteLock&) = delete;
  WriteLock& operator=(const WriteLock&) = delete;

  void unlock() NONREP_RELEASE() NONREP_NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock();
    owned_ = false;
  }
  bool owns_lock() const noexcept { return owned_; }

 private:
  SharedMutex* mu_;
  bool owned_;
};

// condition_variable equivalent operating on UniqueLock<Mutex>. Waits pop
// the lock from the lockdep held stack for the duration of the block and
// re-validate on wakeup (the reacquisition re-runs the rank check, so a
// wait that would re-enter in the wrong order is caught too). Predicates
// run with the lock held and the lockdep entry present, like std.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(UniqueLock& lk,
            const std::source_location& loc = std::source_location::current())
      NONREP_NO_THREAD_SAFETY_ANALYSIS {
    Mutex* mu = begin_wait(lk);
    std::unique_lock<std::mutex> nl(mu->native(), std::adopt_lock);
    cv_.wait(nl);
    nl.release();
    end_wait(lk, mu, loc);
  }

  template <class Pred>
  void wait(UniqueLock& lk, Pred pred,
            const std::source_location& loc = std::source_location::current()) {
    while (!pred()) wait(lk, loc);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(UniqueLock& lk,
                            const std::chrono::time_point<Clock, Duration>& deadline,
                            const std::source_location& loc = std::source_location::current())
      NONREP_NO_THREAD_SAFETY_ANALYSIS {
    Mutex* mu = begin_wait(lk);
    std::unique_lock<std::mutex> nl(mu->native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(nl, deadline);
    nl.release();
    end_wait(lk, mu, loc);
    return status;
  }

  template <class Clock, class Duration, class Pred>
  bool wait_until(UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred,
                  const std::source_location& loc = std::source_location::current()) {
    while (!pred()) {
      if (wait_until(lk, deadline, loc) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lk, const std::chrono::duration<Rep, Period>& dur,
                          const std::source_location& loc = std::source_location::current()) {
    return wait_until(lk, std::chrono::steady_clock::now() + dur, loc);
  }

  template <class Rep, class Period, class Pred>
  bool wait_for(UniqueLock& lk, const std::chrono::duration<Rep, Period>& dur, Pred pred,
                const std::source_location& loc = std::source_location::current()) {
    return wait_until(lk, std::chrono::steady_clock::now() + dur, std::move(pred), loc);
  }

 private:
  static Mutex* begin_wait(UniqueLock& lk) {
    Mutex* mu = lk.mu_;
#if NONREP_LOCK_CHECKS
    lockdep::note_release(mu->cls_, mu);
#endif
    return mu;
  }
  static void end_wait(UniqueLock& lk, Mutex* mu, const std::source_location& loc) {
#if NONREP_LOCK_CHECKS
    lockdep::note_acquire(mu->cls_, mu, loc.file_name(), loc.line());
#endif
    (void)lk;
    (void)mu;
    (void)loc;
  }

  std::condition_variable cv_;
};

#if !NONREP_LOCK_CHECKS
// The zero-cost contract: with checks compiled out the wrappers carry no
// state beyond the std primitive they wrap.
static_assert(sizeof(Mutex) == sizeof(std::mutex));
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex));
static_assert(sizeof(CondVar) == sizeof(std::condition_variable));
#endif

}  // namespace nonrep::util
