#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "error.hpp"

namespace psclip::mt {

/// Rung of the per-slab degradation ladder a slab ended on. Rungs are tried
/// in declaration order; each is strictly more conservative (and slower)
/// than the one before it.
enum class Rung : std::uint8_t {
  /// The fast path (globally prepared contours + worker arena) succeeded.
  kHealthy = 0,
  /// Retry on fresh scratch, no arena, no shared setup state: slab_clip
  /// re-prepares every contour (no cache, no index, no shared schedule) and
  /// runs the same band builder and sweep; multiset_clip materializes the
  /// slab's polygons from its id lists and runs vatti_clip. Produces
  /// bit-identical output to the healthy path — the recovery rung for
  /// every transient or state-corruption fault.
  kRetrySafe,
  /// Final rung: the entire request recomputed by the sequential Vatti
  /// clipper, abandoning the slab decomposition (result contours are no
  /// longer split at slab boundaries).
  kWholeInput,
  /// Terminal governance rung (Alg2Options::allow_partial): the slab was
  /// abandoned because the request's deadline, budget, or cancellation
  /// tripped — no further rung is attempted (time and memory lost in one
  /// slab are lost globally) and the slab's output is *missing* from the
  /// result, recorded in Alg2Stats::partial. Deliberately the deepest rung
  /// so worst_rung() surfaces partiality over any completed degradation.
  kPartialResult,
};

inline const char* to_string(Rung r) {
  switch (r) {
    case Rung::kHealthy: return "healthy";
    case Rung::kRetrySafe: return "retry-safe";
    case Rung::kWholeInput: return "whole-input";
    case Rung::kPartialResult: return "partial-result";
  }
  return "?";
}

/// Per-slab record of how far down the degradation ladder a slab went.
/// All-healthy runs record rung == kHealthy and attempts == 1 everywhere.
struct DegradationReport {
  Rung rung = Rung::kHealthy;
  /// Total attempts made for this slab, including the successful one.
  std::uint32_t attempts = 1;
  /// Code of the *first* failure (meaningful when rung != kHealthy).
  ErrorCode cause = ErrorCode::kSlabFailure;
  /// Message of the first failure (empty when healthy).
  std::string message;
};

/// Per-phase timings for Algorithm 2, matching the breakdown the paper
/// reports in Fig. 9 (partitioning = Steps 4–5, clipping = Step 6,
/// merging = Step 8).
///
/// Wall and CPU are reported separately because the phases run on many
/// workers at once: `partition`/`clip`/`merge` are *wall-clock* sections of
/// the calling thread (they sum to roughly the run's elapsed time), while
/// the `*_cpu` fields sum the per-thread CPU time actually spent in that
/// phase across all threads (clip_cpu == Σ SlabLoad::cpu_seconds), measured
/// with par::ThreadCpuTimer. The distinction matters twice over: earlier
/// schema-1 reports mixed the units in one column (per-phase numbers
/// exceeded the total at slabs = 1), and schema-2 measured the per-slab
/// "CPU" with wall timers inside the slab tasks — which double-charges
/// whenever workers timeshare cores, the artifact behind the committed
/// clip-CPU "doubling" from 1 to 4 slabs while touched edges grew 4%.
struct PhaseTimes {
  double partition = 0.0;  ///< wall: slab placement + partition index build
  double clip = 0.0;       ///< wall: the whole parallel slab section
  double merge = 0.0;      ///< wall: result concatenation
  double partition_cpu = 0.0;  ///< cpu: setup + Σ per-slab partition work
  double clip_cpu = 0.0;       ///< cpu: Σ per-slab sequential clip time
  double merge_cpu = 0.0;      ///< cpu: merge runs on the caller only

  /// Wall-clock total (the paper's Fig. 9 stack height).
  [[nodiscard]] double total() const { return partition + clip + merge; }
  /// Total CPU seconds charged to the three phases.
  [[nodiscard]] double total_cpu() const {
    return partition_cpu + clip_cpu + merge_cpu;
  }
};

/// Per-slab work record, the raw material for the paper's load-imbalance
/// discussion (Fig. 11).
struct SlabLoad {
  double seconds = 0.0;      ///< clip wall time of this slab
  /// Clip CPU time of this slab: thread CPU clock (par::ThreadCpuTimer), so
  /// time the worker was descheduled — other workers timesharing the core —
  /// is not charged. This, not `seconds`, is what sums into
  /// PhaseTimes::clip_cpu and what the bench_slab_scaling inflation gate
  /// measures.
  double cpu_seconds = 0.0;
  /// Bound edges the sequential clipper actually swept for this slab — the
  /// post-partition, post-cleaning edge count (VattiStats::edges), i.e. the
  /// work the slab's Step 6 really did, not the raw vertex count handed in.
  std::int64_t input_edges = 0;
  std::int64_t output_vertices = 0;
  /// Input the *partition* step read for this slab. The retry rungs scan
  /// every vertex of the inputs they materialize (slab_clip's: both whole
  /// inputs); the healthy rung counts the bound edges the band builder
  /// appends — whole prepared fragments for contours inside the band, the
  /// in-band sub-chains of cut ones — so over all slabs it sums to the
  /// number of (edge, band) pairs that meet, O(n + k'). Deterministic (no
  /// timing noise), which makes it the CI-gateable ablation metric.
  std::int64_t touched_edges = 0;
  /// Nanoseconds this slab spent building bounds (healthy: fragment copies
  /// and band cuts in seq::build_band; retry rungs: re-preparation plus
  /// the same assembly, or multiset_clip's vatti_clip bound pass).
  std::int64_t bound_build_ns = 0;
  /// Nanoseconds this slab spent on its scanbeam schedule (slab_clip
  /// healthy: slicing the shared global schedule; otherwise merging the
  /// slab contours' per-contour runs, or the sort or k-way merge inside
  /// vatti_clip).
  std::int64_t schedule_ns = 0;
  /// Approximate peak bytes resident in the scratch arena that served this
  /// slab's successful attempt (seq::VattiScratch::resident_bytes plus the
  /// band builder's staging), sampled right after the attempt. Capacity-based:
  /// pooled worker arenas keep capacity across slabs, so one worker's
  /// arena reports the high-water mark of everything it served so far —
  /// exactly the number the memory-budget model charges (DESIGN.md §11).
  std::int64_t peak_arena_bytes = 0;
};

/// Per-worker scheduling record for one slab_clip / multiset_clip run under
/// the work-stealing slab scheduler: how much slab work each worker
/// actually executed and how it got it. The last entry (index == pool size)
/// is the calling thread, which helps drain the queue while it waits.
struct WorkerLoad {
  std::uint64_t slab_jobs = 0;     ///< slab tasks this worker executed
  std::uint64_t steals = 0;        ///< steal-half operations (pool delta)
  std::uint64_t tasks_stolen = 0;  ///< tasks acquired through those steals
  double busy_seconds = 0.0;       ///< sum of executed slab partition+clip time
  double idle_seconds = 0.0;       ///< pool idle-time delta over the run
};

/// Contiguous run of slabs missing from a partial result, plus the y-range
/// they cover — enough for a caller to re-issue exactly the missing strip
/// as a follow-up request.
struct MissingSlabRange {
  std::size_t first = 0;  ///< first missing slab index (inclusive)
  std::size_t last = 0;   ///< last missing slab index (inclusive)
  double y_lo = 0.0;      ///< bottom of the missing strip
  double y_hi = 0.0;      ///< top of the missing strip
};

/// What a partial result (Rung::kPartialResult under
/// Alg2Options::allow_partial) is missing and why. `partial` is false for
/// every complete result, including degraded-but-complete ones.
struct PartialReport {
  bool partial = false;
  std::vector<MissingSlabRange> missing;
  /// Governance code that stopped the first abandoned slab (kCancelled,
  /// kDeadlineExceeded or kBudgetExceeded).
  ErrorCode cause = ErrorCode::kDeadlineExceeded;
  std::string message;  ///< first governance failure's message

  [[nodiscard]] std::size_t missing_slabs() const {
    std::size_t n = 0;
    for (const auto& r : missing) n += r.last - r.first + 1;
    return n;
  }
};

/// Full instrumentation for one Algorithm 2 run.
struct Alg2Stats {
  PhaseTimes phases;
  std::vector<SlabLoad> slabs;
  std::vector<WorkerLoad> workers;  ///< see WorkerLoad
  /// Per-slab fault-isolation record, index-aligned with `slabs`. When the
  /// whole-input fallback fired, every entry reports Rung::kWholeInput.
  std::vector<DegradationReport> degradation;
  /// Governance outcome: which slabs (if any) are missing from the result.
  PartialReport partial;
  std::int64_t output_contours = 0;
  std::int64_t duplicates_removed = 0;  ///< multiset variant only

  /// Number of slabs that did not complete on the healthy fast path.
  [[nodiscard]] std::int64_t degraded_slabs() const {
    std::int64_t n = 0;
    for (const auto& d : degradation)
      if (d.rung != Rung::kHealthy) ++n;
    return n;
  }

  /// Deepest ladder rung any slab reached in this run.
  [[nodiscard]] Rung worst_rung() const {
    Rung worst = Rung::kHealthy;
    for (const auto& d : degradation)
      if (d.rung > worst) worst = d.rung;
    return worst;
  }

  /// max(slab time) / mean(slab time): 1.0 = perfectly balanced.
  [[nodiscard]] double load_imbalance() const {
    const auto [sum, mx] = sum_max(slabs, &SlabLoad::seconds);
    const double mean = slabs.empty() ? 0.0 : sum / slabs.size();
    return mean > 0.0 ? mx / mean : 1.0;
  }

  /// Clip-phase speedup the decomposition would achieve with one core per
  /// slab: sum(slab time) / max(slab time). Hardware-independent — this
  /// is the quantity whose *shape* must match the paper's scaling figures
  /// regardless of how many cores the host actually has.
  [[nodiscard]] double ideal_speedup() const {
    const auto [sum, mx] = sum_max(slabs, &SlabLoad::seconds);
    return mx > 0.0 ? sum / mx : 1.0;
  }

  /// max(worker busy time) / mean(worker busy time) over workers that could
  /// run slab jobs: 1.0 = every worker spent the same time clipping. This is
  /// the quantity the work-stealing scheduler improves — slab times stay
  /// skewed (Fig. 11), but oversubscription + stealing spreads them evenly
  /// across workers.
  [[nodiscard]] double worker_imbalance() const {
    const auto [sum, mx] = sum_max(workers, &WorkerLoad::busy_seconds);
    const double mean = workers.empty() ? 0.0 : sum / workers.size();
    return mean > 0.0 ? mx / mean : 1.0;
  }

  /// Total successful steal-half operations across workers for this run.
  [[nodiscard]] std::uint64_t total_steals() const {
    std::uint64_t s = 0;
    for (const auto& w : workers) s += w.steals;
    return s;
  }

 private:
  /// Sum and maximum of one field over `items`.
  template <typename T>
  static std::pair<double, double> sum_max(const std::vector<T>& items,
                                           double T::*field) {
    double sum = 0.0, mx = 0.0;
    for (const T& it : items) {
      sum += it.*field;
      mx = std::max(mx, it.*field);
    }
    return {sum, mx};
  }
};

}  // namespace psclip::mt
