#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "geom/polygon.hpp"
#include "seq/rect_clip.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {

/// Reusable scratch owned by one executing thread, handed out by
/// worker_arena(). A healthy slab attempt borrows the arena for its whole
/// run — rect-clip partition buffers, the Vatti sweep scratch (bound table,
/// scanbeam list, the SoA active edge table with its beam-bottom/beam-top
/// x arrays and flat edge-id position index, output pool, per-beam
/// intersection buffers, minima staging + merge buffers) and the fused
/// partition's contour-ref list. Because slab tasks on one thread run
/// strictly one after another, nothing here needs synchronization; buffers
/// are cleared (capacity retained) at each use site rather than
/// reallocated, so a worker that clips many slabs touches the allocator
/// only while its high-water marks are still growing.
struct SlabArena {
  seq::VattiScratch vatti;      ///< sweep-structure pools for the fused sweep
  seq::RectClipScratch rect;    ///< straddling-contour buffer for rect clips
  /// Fused-partition staging: the slab's overlap list in index order, as
  /// seq::clip_bounds_to_slab reads it.
  std::vector<seq::SlabContourRef> refs;
  /// Schedule-run boundaries for the fused path's merge_sorted_runs_unique
  /// over the scratch schedule (scratch_schedule(vatti)).
  std::vector<std::size_t> run_end;

  /// Approximate bytes resident in this arena (capacity-based, like
  /// seq::VattiScratch::resident_bytes): the per-worker high-water mark the
  /// memory-budget model charges and SlabLoad::peak_arena_bytes reports.
  [[nodiscard]] std::size_t resident_bytes() const {
    auto vec = [](const auto& v) {
      return v.capacity() *
             sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    auto set_bytes = [&](const geom::PolygonSet& s) {
      std::size_t b = vec(s.contours);
      for (const auto& c : s.contours) b += vec(c.pts);
      return b;
    };
    return vatti.resident_bytes() + vec(refs) + vec(run_end) +
           set_bytes(rect.straddling) +
           set_bytes(rect.pieces) + vec(rect.piece_prep.pts.pts) +
           vec(rect.piece_prep.bt.edges) + vec(rect.piece_prep.bt.minima) +
           vec(rect.piece_prep.ys);
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
