#include "mt/slab_index.hpp"

#include <algorithm>
#include <numeric>

#include "parallel/scan.hpp"
#include "parallel/sort.hpp"

namespace psclip::mt {

std::vector<double> slab_bounds(std::span<const double> events, double lo,
                                double hi, unsigned slabs) {
  std::vector<double> bounds{lo};
  const std::size_t n = events.size();
  std::size_t next = 1;  // first gap (events[cut-1], events[cut]) still free
  for (unsigned t = 1; t < slabs; ++t) {
    std::size_t cut = t * n / slabs;
    if (cut < next) continue;
    // The midpoint of two events one ULP apart (or equal) rounds onto one
    // of them; such a gap has no room for a cut, so take the next that has.
    for (; cut < n; ++cut) {
      const double b = 0.5 * (events[cut - 1] + events[cut]);
      if (events[cut - 1] < b && b < events[cut]) {
        bounds.push_back(b);
        break;
      }
    }
    next = cut + 1;
  }
  if (hi > bounds.back()) bounds.push_back(hi);
  return bounds;
}

SlabRange slab_range(double ymin, double ymax, std::span<const double> bounds,
                     std::size_t nslabs) {
  SlabRange r;
  if (!(ymin <= ymax)) return r;  // empty bbox (infinities compare false)
  // First t with bounds[t+1] >= ymin: lower_bound gives the first index i0
  // with bounds[i0] >= ymin, and bounds[i0 - 1] < ymin rules out t < i0-1.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), ymin);
  const auto i0 = static_cast<std::size_t>(it - bounds.begin());
  if (i0 == bounds.size()) return r;  // entirely above the top boundary
  r.lo = i0 == 0 ? 0 : i0 - 1;
  // Last t (<= nslabs-1) with bounds[t] <= ymax.
  const auto jt = std::upper_bound(bounds.begin(), bounds.end(), ymax);
  const auto j0 = static_cast<std::size_t>(jt - bounds.begin());
  if (j0 == 0) return SlabRange{};  // entirely below the bottom boundary
                                    // (r.lo is already set — discard it)
  r.hi = std::min(nslabs - 1, j0 - 1);
  return r;
}

namespace {

/// Sortable (slab, contour) record.
struct Rec {
  std::uint32_t slab = 0;
  SlabEntry entry;
};

}  // namespace

SlabContourIndex build_slab_index(par::ThreadPool& pool,
                                  std::span<const geom::BBox> boxes,
                                  std::span<const double> bounds) {
  SlabContourIndex idx;
  const std::size_t nslabs = bounds.size() >= 2 ? bounds.size() - 1 : 0;
  idx.offsets.assign(nslabs + 1, 0);
  if (nslabs == 0 || boxes.empty()) return idx;

  // Count phase: slabs overlapped per contour (two binary searches each).
  const std::size_t n = boxes.size();
  std::vector<std::int64_t> counts(n);
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        const SlabRange r =
            slab_range(boxes[i].ymin, boxes[i].ymax, bounds, nslabs);
        counts[i] = r.lo <= r.hi
                        ? static_cast<std::int64_t>(r.hi - r.lo + 1)
                        : 0;
      },
      /*grain=*/256);

  // Allocate phase: the blocked prefix sum turns counts into write slots
  // (the paper's count/allocate/report pattern, Lemma 4's substrate).
  const par::Allocation alloc = par::allocate_from_counts(pool, counts);
  std::vector<Rec> recs(static_cast<std::size_t>(alloc.total));

  // Report phase: every contour writes its own disjoint slot range.
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        if (counts[i] == 0) return;
        const SlabRange r =
            slab_range(boxes[i].ymin, boxes[i].ymax, bounds, nslabs);
        auto at = static_cast<std::size_t>(alloc.offsets[i]);
        for (std::size_t t = r.lo; t <= r.hi; ++t, ++at)
          recs[at] = {static_cast<std::uint32_t>(t),
                      {static_cast<std::uint32_t>(i)}};
      },
      /*grain=*/256);

  // Group by slab, ascending contour within a slab, with the parallel
  // mergesort. The fill above is contour-major, so records are already
  // nearly sorted by contour — the comparator makes the order explicit
  // rather than relying on stability.
  par::parallel_sort(pool, recs, [](const Rec& a, const Rec& b) {
    if (a.slab != b.slab) return a.slab < b.slab;
    return a.entry.contour < b.entry.contour;
  });

  // Entries in slab order; per-slab offsets from the slab counts.
  idx.entries.reserve(recs.size());
  for (const Rec& r : recs) {
    idx.entries.push_back(r.entry);
    ++idx.offsets[r.slab + 1];
  }
  std::partial_sum(idx.offsets.begin(), idx.offsets.end(),
                   idx.offsets.begin());
  return idx;
}

}  // namespace psclip::mt
