#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/bbox.hpp"
#include "parallel/thread_pool.hpp"

namespace psclip::mt {

/// One item's membership in one slab of the interval index.
struct SlabEntry {
  std::uint32_t contour = 0;  ///< index of the item (box) in the input span
};

/// Slab-overlap index: for every slab t, the exact list of item ids whose
/// y-interval overlaps [bounds[t], bounds[t+1]] (closed, matching
/// geom::BBox::overlaps), in ascending id order. mt::slab_clip indexes
/// band-builder units — whole contours, or single local minima of the
/// contours that straddle a cut — by their prepared extents.
///
/// This is what makes Algorithm 2's partition phase output-sensitive: slab
/// t visits only the units that meet it, so total partition work is
/// O(n log n) to build the index once plus Σ_t n_t to consume it, instead
/// of the O(p·n) of broadcasting both whole input sets to every slab task.
/// (Skala's preprocessing-pays-for-itself line-clipping argument, applied
/// to the slab decomposition.)
struct SlabContourIndex {
  std::vector<std::int64_t> offsets;  ///< per-slab start, size nslabs + 1
  std::vector<SlabEntry> entries;     ///< grouped by slab, ascending contour

  [[nodiscard]] std::size_t num_slabs() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  /// Overlap list of slab t.
  [[nodiscard]] std::span<const SlabEntry> slab(std::size_t t) const {
    return {entries.data() + offsets[t],
            static_cast<std::size_t>(offsets[t + 1] - offsets[t])};
  }

  /// Σ_t n_t — the output-sensitive total the partition phase touches.
  [[nodiscard]] std::int64_t total_entries() const {
    return static_cast<std::int64_t>(entries.size());
  }
};

/// Slab range [lo, hi] (inclusive) a y-interval overlaps, or lo > hi when
/// it overlaps none. Closed-interval semantics on both ends, identical to
/// geom::BBox::overlaps against the slab rectangle [bounds[t], bounds[t+1]]:
///   overlaps slab t  <=>  ymin <= bounds[t+1] && ymax >= bounds[t].
struct SlabRange {
  std::size_t lo = 1, hi = 0;

  /// The interval overlaps exactly one slab, so lies within it: slab_clip
  /// indexes such a contour whole instead of by its local minima.
  [[nodiscard]] bool single() const { return lo == hi; }
};

/// Slab boundaries with (nearly) equal event counts per slab: `lo`, then
/// one cut midway between the two sorted `events` at each multiple of
/// events.size() / slabs, then `hi` when above the last cut. A cut is
/// strictly between its two events; where their midpoint rounds onto one of
/// them (events equal or one ULP apart) it moves up to the next gap with
/// room, and a multiple whose gap is already taken is skipped. Both engines
/// place their slabs this way — slab_clip over distinct vertex ordinates,
/// multiset_clip over MBR y-extents — so no event lies exactly on an
/// interior boundary.
std::vector<double> slab_bounds(std::span<const double> events, double lo,
                                double hi, unsigned slabs);

/// Compute the slab range of one y-interval against the (strictly
/// increasing) slab boundary array — the classification primitive behind
/// build_slab_index, exported for slab_clip's whole-or-minima unit choice.
SlabRange slab_range(double ymin, double ymax, std::span<const double> bounds,
                     std::size_t nslabs);

/// Build the index for one input set from its cached per-contour bounding
/// boxes and the (strictly increasing) slab boundary array.
///
/// Parallel over the pool: a bbox pass computed the boxes once upstream;
/// here each contour locates its slab range with two binary searches, the
/// blocked prefix sum (parallel/scan) turns per-contour overlap counts into
/// write offsets, the (slab, contour) records are emitted in parallel and
/// grouped with the parallel mergesort (parallel/sort). Contours with an
/// empty bbox, or entirely outside [bounds.front(), bounds.back()], produce
/// no entries.
SlabContourIndex build_slab_index(par::ThreadPool& pool,
                                  std::span<const geom::BBox> boxes,
                                  std::span<const double> bounds);

}  // namespace psclip::mt
