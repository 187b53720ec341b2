#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "seq/band.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {

/// Reusable scratch owned by one executing thread, handed out by
/// worker_arena(). A healthy slab attempt borrows the arena for its whole
/// run — the Vatti sweep scratch (bound table,
/// scanbeam list, the SoA active edge table with its beam-bottom/beam-top
/// x arrays and flat edge-id position index, output pool, per-beam
/// intersection buffers, minima staging + merge buffers) and the band
/// builder's contour list. Because slab tasks on one thread run
/// strictly one after another, nothing here needs synchronization; buffers
/// are cleared (capacity retained) at each use site rather than
/// reallocated, so a worker that clips many slabs touches the allocator
/// only while its high-water marks are still growing.
struct SlabArena {
  seq::VattiScratch vatti;  ///< bound table, schedule and sweep pools
  /// The slab's band-builder units in overlap-list order, as
  /// seq::build_band reads them.
  std::vector<seq::BandRef> refs;
  /// Schedule-run boundaries for merge_sorted_runs_unique over the scratch
  /// schedule (scratch_schedule(vatti)).
  std::vector<std::size_t> run_end;

  /// Approximate bytes resident in this arena (capacity-based, like
  /// seq::VattiScratch::resident_bytes): the per-worker high-water mark the
  /// memory-budget model charges and SlabLoad::peak_arena_bytes reports.
  [[nodiscard]] std::size_t resident_bytes() const {
    auto vec = [](const auto& v) {
      return v.capacity() *
             sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    return vatti.resident_bytes() + vec(refs) + vec(run_end);
  }
};

/// The calling thread's slab arena (created on first use, then reused for
/// every subsequent slab task this thread executes, across all clips and
/// pools for the life of the process).
SlabArena& worker_arena();

/// Number of distinct arenas created so far == distinct threads that have
/// executed slab tasks. Exposed for tests.
std::size_t worker_arena_count();

}  // namespace psclip::mt
