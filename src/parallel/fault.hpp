#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <string>
#include <thread>

#include "error.hpp"
#include "parallel/cancel.hpp"

namespace psclip::par::fault {

/// Deterministic fault-injection framework.
///
/// Production builds compile every site down to nothing (the whole state
/// machine below is gated on the PSCLIP_FAULT_INJECTION compile definition,
/// set by the CMake option of the same name). Injection builds let a test
/// arm exactly one Plan at a time: a site, a fault kind, a key selecting
/// *which* execution context fires (slab index, task index, or any), and a
/// fire count. Each matching site evaluation consumes one firing until the
/// count is exhausted, so a test can force a failure at attempt 1 only
/// (exercising the retry rung) or at every attempt within one slab
/// (forcing the whole-input fallback) — all bit-reproducibly, with no
/// timing dependence.
///
/// Keys make targeting deterministic under the work-stealing scheduler: a
/// slab task installs ScopedKey(slab) for its whole attempt, so a plan
/// keyed on a slab fires in that slab no matter which worker runs it.

/// Where a fault can be injected.
enum class Site : int {
  kRectClip = 0,  ///< straddling path of seq::rect_clip (viewport clipping)
  kVattiSweep,    ///< seq::vatti_clip entry / output
  kArena,         ///< mt::worker_arena() borrow (throw kinds only on entry)
  kTaskGroup,     ///< par::TaskGroup task wrapper, before the body runs
  kFusedBounds,   ///< seq::build_band (slab band builder) entry / output
};
inline constexpr int kSiteCount = 5;

inline const char* to_string(Site s) {
  switch (s) {
    case Site::kRectClip: return "rect-clip";
    case Site::kVattiSweep: return "vatti-sweep";
    case Site::kArena: return "arena";
    case Site::kTaskGroup: return "task-group";
    case Site::kFusedBounds: return "fused-bounds";
  }
  return "?";
}

/// What the fault does when it fires.
enum class Kind : int {
  kThrow = 0,  ///< throw psclip::Error(kInjected)
  kBadAlloc,   ///< throw std::bad_alloc (resource-exhaustion class)
  kCorrupt,    ///< silently poison the site's output with a non-finite vertex
  kStall,      ///< sleep Plan::magnitude ms — a slow site, not a broken one
  kHog,        ///< transient Plan::magnitude-byte spike against the installed
               ///< gov budget; throws kBudgetExceeded only if it doesn't fit
};
/// Count of the *throwing/corrupting* kinds seeded_plan draws from. The
/// governance kinds (kStall/kHog) have their own generator so the original
/// fuzz lane's plans — and its fired ⟹ degraded invariant, which a stall
/// would violate — are unchanged.
inline constexpr int kKindCount = 3;
inline constexpr int kGovernanceKindCount = 2;

inline const char* to_string(Kind k) {
  switch (k) {
    case Kind::kThrow: return "throw";
    case Kind::kBadAlloc: return "bad-alloc";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kStall: return "stall";
    case Kind::kHog: return "hog";
  }
  return "?";
}

/// Matches every key (and contexts that installed no key at all).
inline constexpr std::uint64_t kAnyKey = ~std::uint64_t{0};
/// Thread-local key value outside any ScopedKey scope. Distinct from every
/// real slab/task index, so a keyed plan can never fire in the whole-input
/// sequential fallback (which deliberately runs keyless).
inline constexpr std::uint64_t kNoKey = ~std::uint64_t{0} - 1;

struct Plan {
  Site site = Site::kVattiSweep;
  Kind kind = Kind::kThrow;
  /// Context key the plan fires in: a slab index (sites inside slab
  /// attempts), a TaskGroup submission index (kTaskGroup), or kAnyKey.
  std::uint64_t key = kAnyKey;
  /// Number of matching site evaluations that fault before the plan goes
  /// quiet (it stays armed so `fired()` keeps reporting).
  std::uint64_t fire_count = 1;
  /// Kind-specific size: milliseconds slept per kStall firing, bytes spiked
  /// per kHog firing. 0 selects the kind's default (5 ms / 1 GiB).
  std::uint64_t magnitude = 0;
};

/// Default magnitudes, exposed so tests can assert against them.
inline constexpr std::uint64_t kDefaultStallMs = 5;
inline constexpr std::uint64_t kDefaultHogBytes = 1ull << 30;

/// A slab-engine site for a seeded plan: every site but kRectClip, which
/// only seq::rect_clip reaches (the slab engines never rect-clip), so a
/// fuzz plan drawn there would never fire.
inline Site seeded_site(std::uint64_t z) {
  return static_cast<Site>(1 + z % (kSiteCount - 1));
}

/// Derive a pseudo-random single-shot plan from a seed — the fuzz lane's
/// source of fault diversity. kCorrupt is only meaningful at sites that
/// produce geometry, so kTaskGroup faults are always kThrow.
inline Plan seeded_plan(std::uint64_t seed, std::uint64_t max_key) {
  // SplitMix64 finalizer: decorrelate the consecutive corpus seeds.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  Plan p;
  p.site = seeded_site(z);
  p.kind = p.site == Site::kTaskGroup
               ? Kind::kThrow
               : static_cast<Kind>((z >> 8) % kKindCount);
  p.key = max_key ? (z >> 16) % max_key : kAnyKey;
  p.fire_count = 1;
  return p;
}

/// Governance-kind sibling of seeded_plan: single-shot kStall or kHog at a
/// pseudo-random site/key. Stalls stay short (1..8 ms) so fuzz lanes remain
/// fast; hogs spike large (1 GiB) so any installed finite budget trips.
inline Plan seeded_governance_plan(std::uint64_t seed, std::uint64_t max_key) {
  std::uint64_t z = (seed ^ 0xa5a5a5a5a5a5a5a5ull) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  Plan p;
  p.site = seeded_site(z);
  p.kind = ((z >> 8) % kGovernanceKindCount) == 0 ? Kind::kStall : Kind::kHog;
  p.key = max_key ? (z >> 16) % max_key : kAnyKey;
  p.fire_count = 1;
  p.magnitude = p.kind == Kind::kStall ? 1 + ((z >> 32) % 8) : kDefaultHogBytes;
  return p;
}

#ifdef PSCLIP_FAULT_INJECTION

namespace detail {
inline std::atomic<bool> g_armed{false};
inline Plan g_plan;  // written only while disarmed
inline std::atomic<std::uint64_t> g_remaining{0};
inline std::atomic<std::uint64_t> g_fired{0};
inline thread_local std::uint64_t t_key = kNoKey;

/// Claim one firing if the armed plan matches this site/kind/key.
inline bool claim(Site site, Kind kind) {
  if (!g_armed.load(std::memory_order_acquire)) return false;
  const Plan& p = g_plan;
  if (p.site != site || p.kind != kind) return false;
  if (p.key != kAnyKey && p.key != t_key) return false;
  std::uint64_t r = g_remaining.load(std::memory_order_relaxed);
  while (r > 0) {
    if (g_remaining.compare_exchange_weak(r, r - 1,
                                          std::memory_order_acq_rel)) {
      g_fired.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}
}  // namespace detail

/// Install the fault key for the current thread for the current scope
/// (slab attempts install their slab index; TaskGroup installs the
/// submission index around each task body).
class ScopedKey {
 public:
  explicit ScopedKey(std::uint64_t key) : prev_(detail::t_key) {
    detail::t_key = key;
  }
  ~ScopedKey() { detail::t_key = prev_; }
  ScopedKey(const ScopedKey&) = delete;
  ScopedKey& operator=(const ScopedKey&) = delete;

 private:
  std::uint64_t prev_;
};

inline void arm(const Plan& p) {
  detail::g_armed.store(false, std::memory_order_release);
  detail::g_plan = p;
  detail::g_fired.store(0, std::memory_order_relaxed);
  detail::g_remaining.store(p.fire_count, std::memory_order_relaxed);
  detail::g_armed.store(true, std::memory_order_release);
}

inline void disarm() { detail::g_armed.store(false, std::memory_order_release); }

/// Total faults fired since the last arm().
inline std::uint64_t fired() {
  return detail::g_fired.load(std::memory_order_relaxed);
}

/// Throw-type injection point. Call at a site's entry; throws when an armed
/// kThrow/kBadAlloc plan matches, otherwise free.
inline void inject(Site site) {
  if (detail::claim(site, Kind::kThrow))
    throw Error(ErrorCode::kInjected,
                std::string("injected fault at ") + to_string(site));
  if (detail::claim(site, Kind::kBadAlloc)) throw std::bad_alloc();
  if (detail::claim(site, Kind::kStall)) {
    const std::uint64_t ms =
        detail::g_plan.magnitude ? detail::g_plan.magnitude : kDefaultStallMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (detail::claim(site, Kind::kHog)) {
    // Transient allocation spike: probe the installed budget and release
    // immediately (the hog's memory does not outlive the site). Without a
    // budget the spike is unobservable; with one that it doesn't fit, the
    // site fails exactly like a real OOM would — preemptively.
    const std::uint64_t bytes =
        detail::g_plan.magnitude ? detail::g_plan.magnitude : kDefaultHogBytes;
    if (ResourceBudget* b = gov::current_budget())
      if (!b->charge_transient(bytes))
        throw Error(ErrorCode::kBudgetExceeded,
                    std::string("injected allocation spike at ") +
                        to_string(site) + " (" + std::to_string(bytes) +
                        " bytes)");
  }
}

/// Corruption-type injection point. Call where a site can poison its
/// geometric output; returns true when the caller must emit a non-finite
/// vertex (simulating the silent-corruption failure mode the fuzz harness
/// caught in the wild).
inline bool corrupt(Site site) { return detail::claim(site, Kind::kCorrupt); }

inline constexpr bool kEnabled = true;

#else  // !PSCLIP_FAULT_INJECTION — everything compiles to nothing.

class ScopedKey {
 public:
  explicit ScopedKey(std::uint64_t) {}
  ScopedKey(const ScopedKey&) = delete;
  ScopedKey& operator=(const ScopedKey&) = delete;
};

inline void arm(const Plan&) {}
inline void disarm() {}
inline std::uint64_t fired() { return 0; }
inline void inject(Site) {}
inline bool corrupt(Site) { return false; }

inline constexpr bool kEnabled = false;

#endif  // PSCLIP_FAULT_INJECTION

}  // namespace psclip::par::fault
