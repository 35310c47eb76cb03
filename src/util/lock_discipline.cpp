// Lockdep runtime: per-thread held-lock stacks, the process-global
// acquisition-order graph, and the diagnostics that fire on violations.
//
// Design notes:
//  - Locks are validated by *class* (interned name + rank + traits), not by
//    instance: the first time class B is acquired under class A anywhere in
//    the process, the edge A->B is recorded with both acquisition sites; a
//    later B->A anywhere -- any thread, any instances -- is a cycle even if
//    those two threads never deadlocked on this run.
//  - The hot path is cheap on purpose: rank checks touch only the calling
//    thread's stack, and edge presence is a relaxed atomic load. The global
//    registry mutex is taken only to intern a class (construction) or to
//    insert a never-seen edge (first time per process).
//  - The registry mutex is a raw std::mutex by necessity (the checker can't
//    check itself); scripts/lint_nonrep.py allowlists this file.
#include "util/lock_discipline.hpp"

#if NONREP_LOCK_CHECKS

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nonrep::util::lockdep {
namespace {

constexpr std::uint32_t kMaxClasses = 128;
constexpr int kMaxHeld = 64;  // state/object stores hold a 16-shard stripe at once

struct ClassInfo {
  const char* name;
  LockRank rank;
  LockTraits traits;
};

// One acquisition site per recorded edge end.
struct EdgeSites {
  const char* under_file;  // where the outer (already-held) lock was taken
  unsigned under_line;
  const char* at_file;     // where the inner lock was taken under it
  unsigned at_line;
};

// All mutable registry state lives behind a construct-on-first-use accessor:
// global Mutex objects in other TUs register their class during dynamic
// initialization, whose cross-TU order is unspecified -- namespace-scope
// arrays here would be dynamically re-initialized after such a registration
// and silently wipe it (observed: traits zeroed, name/rank kept).
//
// Edge presence is read lock-free on every nested acquisition; the site
// payload is written once, under mu, before the flag is set (release) and
// only read back under mu when building a report.
struct Registry {
  std::mutex mu;  // guards class interning + edge insertion/site data
  ClassInfo classes[kMaxClasses] = {};
  std::uint32_t count = 0;  // written under mu
  std::atomic<bool> edge_present[kMaxClasses][kMaxClasses] = {};
  EdgeSites edge_sites[kMaxClasses][kMaxClasses] = {};
};

Registry& reg() {
  static Registry r;
  return r;
}

struct Held {
  std::uint32_t cls;
  const void* addr;
  const char* file;
  unsigned line;
};
thread_local Held t_held[kMaxHeld];
thread_local int t_depth = 0;

[[noreturn]] void die() {
  std::fflush(stderr);
  std::abort();
}

void print_held_stack() {
  std::fprintf(stderr, "  held by this thread (outermost first):\n");
  for (int i = 0; i < t_depth; ++i) {
    const ClassInfo& c = reg().classes[t_held[i].cls];
    std::fprintf(stderr, "    #%d \"%s\" (rank %u) instance %p acquired at %s:%u\n", i,
                 c.name, lock_rank_value(c.rank), t_held[i].addr, t_held[i].file,
                 t_held[i].line);
  }
  std::fprintf(stderr,
               "  lock ranks are defined in src/util/lock_discipline.hpp (LockRank).\n");
}

[[noreturn]] void report_violation(const char* what, std::uint32_t cls, const void* addr,
                                   const char* file, unsigned line) {
  const ClassInfo& c = reg().classes[cls];
  std::fprintf(stderr, "nonrep lockdep: LOCK ORDER VIOLATION (%s)\n", what);
  std::fprintf(stderr, "  acquiring \"%s\" (rank %u) instance %p at %s:%u\n", c.name,
               lock_rank_value(c.rank), addr, file, line);
  print_held_stack();
  die();
}

// DFS over recorded edges: is `to` reachable from `from`? Fills parent[]
// for path reconstruction. Caller holds reg().mu.
bool reachable(std::uint32_t from, std::uint32_t to, std::uint32_t* parent) {
  bool visited[kMaxClasses] = {};
  std::uint32_t stack[kMaxClasses];
  int sp = 0;
  stack[sp++] = from;
  visited[from] = true;
  while (sp > 0) {
    const std::uint32_t n = stack[--sp];
    if (n == to) return true;
    for (std::uint32_t m = 0; m < reg().count; ++m) {
      if (!visited[m] && reg().edge_present[n][m].load(std::memory_order_relaxed)) {
        visited[m] = true;
        parent[m] = n;
        stack[sp++] = m;
      }
    }
  }
  return false;
}

// Caller holds reg().mu; the new edge under->cls would close a cycle
// because cls already reaches under. Print the whole chain and abort.
[[noreturn]] void report_cycle(std::uint32_t under, std::uint32_t cls, const void* addr,
                               const char* file, unsigned line,
                               const std::uint32_t* parent) {
  std::fprintf(stderr, "nonrep lockdep: LOCK CYCLE DETECTED\n");
  std::fprintf(stderr, "  new edge \"%s\" -> \"%s\": acquiring %p at %s:%u while holding "
                       "\"%s\"\n",
               reg().classes[under].name, reg().classes[cls].name, addr, file, line,
               reg().classes[under].name);
  std::fprintf(stderr, "  existing chain closing the cycle:\n");
  // Walk the recorded path cls -> ... -> under backwards via parent[].
  std::uint32_t path[kMaxClasses];
  int n = 0;
  for (std::uint32_t node = under; node != cls; node = parent[node]) path[n++] = node;
  path[n++] = cls;
  for (int i = n - 1; i > 0; --i) {
    const std::uint32_t a = path[i], b = path[i - 1];
    const EdgeSites& s = reg().edge_sites[a][b];
    std::fprintf(stderr,
                 "    \"%s\" -> \"%s\" (\"%s\" held since %s:%u, \"%s\" acquired at "
                 "%s:%u)\n",
                 reg().classes[a].name, reg().classes[b].name, reg().classes[a].name,
                 s.under_file, s.under_line, reg().classes[b].name, s.at_file, s.at_line);
  }
  print_held_stack();
  die();
}

}  // namespace

std::uint32_t register_class(const char* name, LockRank rank, LockTraits traits) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  for (std::uint32_t i = 0; i < r.count; ++i) {
    if (std::strcmp(r.classes[i].name, name) == 0) {
      if (r.classes[i].rank != rank || r.classes[i].traits.multi != traits.multi) {
        std::fprintf(stderr,
                     "nonrep lockdep: lock class \"%s\" re-registered with different "
                     "rank/traits (%u vs %u)\n",
                     name, lock_rank_value(r.classes[i].rank), lock_rank_value(rank));
        die();
      }
      return i;
    }
  }
  if (r.count == kMaxClasses) {
    std::fprintf(stderr,
                 "nonrep lockdep: too many lock classes (max %u); raise kMaxClasses in "
                 "util/lock_discipline.cpp\n",
                 kMaxClasses);
    die();
  }
  r.classes[r.count] = ClassInfo{name, rank, traits};
  return r.count++;
}

void note_acquire(std::uint32_t cls, const void* addr, const char* file, unsigned line) {
  const ClassInfo& c = reg().classes[cls];
  const std::uint16_t rank = lock_rank_value(c.rank);

  if (t_depth == kMaxHeld) {
    report_violation("held-lock stack overflow", cls, addr, file, line);
  }

  // Per-thread checks: recursion, rank monotonicity, stripe address order.
  std::uint16_t max_rank = 0;
  const Held* innermost = nullptr;    // a held entry carrying max_rank
  std::uintptr_t max_same_class = 0;  // highest same-class instance held
  for (int i = 0; i < t_depth; ++i) {
    const Held& h = t_held[i];
    if (h.addr == addr) {
      report_violation("recursive acquisition", cls, addr, file, line);
    }
    const std::uint16_t hr = lock_rank_value(reg().classes[h.cls].rank);
    if (hr >= max_rank && hr != 0) {
      max_rank = hr;
      innermost = &h;
    }
    if (h.cls == cls) {
      const auto ha = reinterpret_cast<std::uintptr_t>(h.addr);
      if (ha > max_same_class) max_same_class = ha;
    }
  }
  if (rank != 0 && max_rank != 0 && innermost != nullptr) {
    if (rank < max_rank) {
      report_violation("rank inversion", cls, addr, file, line);
    }
    if (rank == max_rank) {
      const bool ordered_stripe =
          innermost->cls == cls && c.traits.multi &&
          reinterpret_cast<std::uintptr_t>(addr) > max_same_class;
      if (!ordered_stripe) {
        report_violation(innermost->cls == cls ? "same-class nesting out of stripe order"
                                               : "equal-rank nesting",
                         cls, addr, file, line);
      }
    }
  }

  // Acquisition-order graph: record top-of-stack -> new on first sight;
  // detect the cycle the new edge would close.
  if (t_depth > 0) {
    const Held& top = t_held[t_depth - 1];
    if (top.cls != cls &&
        !reg().edge_present[top.cls][cls].load(std::memory_order_relaxed)) {
      Registry& r = reg();
      std::lock_guard<std::mutex> lk(r.mu);
      if (!r.edge_present[top.cls][cls].load(std::memory_order_relaxed)) {
        std::uint32_t parent[kMaxClasses] = {};
        if (reachable(cls, top.cls, parent)) {
          report_cycle(top.cls, cls, addr, file, line, parent);
        }
        r.edge_sites[top.cls][cls] = EdgeSites{top.file, top.line, file, line};
        r.edge_present[top.cls][cls].store(true, std::memory_order_release);
      }
    }
  }

  t_held[t_depth++] = Held{cls, addr, file, line};
}

void note_release(std::uint32_t cls, const void* addr) {
  // Releases may be out of LIFO order (interleaved unique_lock scopes), so
  // scan from the top and close the gap.
  for (int i = t_depth - 1; i >= 0; --i) {
    if (t_held[i].addr == addr && t_held[i].cls == cls) {
      for (int j = i; j + 1 < t_depth; ++j) t_held[j] = t_held[j + 1];
      --t_depth;
      return;
    }
  }
  std::fprintf(stderr,
               "nonrep lockdep: releasing \"%s\" instance %p not held by this thread\n",
               reg().classes[cls].name, addr);
  print_held_stack();
  die();
}

void assert_no_locks_held(const char* where) {
  if (t_depth == 0) return;
  std::fprintf(stderr, "nonrep lockdep: LOCK HELD ACROSS DELIVER: entering %s with \"%s\" held\n",
               where, reg().classes[t_held[0].cls].name);
  print_held_stack();
  die();
}

int held_count() noexcept { return t_depth; }

}  // namespace nonrep::util::lockdep

#endif  // NONREP_LOCK_CHECKS
