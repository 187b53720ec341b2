#pragma once

#include <cstdint>
#include <limits>
#include <span>

#include "geom/bbox.hpp"
#include "seq/bounds.hpp"

namespace psclip::seq {

/// A horizontal band lo <= y <= hi of the plane: one slab of Algorithm 2.
/// An infinite end leaves that side open; the default band is the whole
/// plane (whole-input tables, every mt::multiset_clip slab).
struct Band {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();

  /// A contour whose prepared box lies in the band needs no cut.
  [[nodiscard]] bool contains(const geom::BBox& box) const {
    return lo <= box.ymin && box.ymax <= hi;
  }
};

/// One unit of a slab's work for the band builder: a prepared contour,
/// whole (`minimum` < 0), or the two bounds of its local minimum
/// `minimum` (index into pc->bt.minima). Null `pc`: degenerate after prep.
struct BandRef {
  const PreparedContour* pc = nullptr;
  std::int32_t minimum = -1;
};

/// y-extent of local minimum k's two bounds in `pc`: from the minimum to
/// the higher of the two bounds' tops. A slab index over these extents
/// hands each band only the minima whose bounds can meet it.
geom::BBox minimum_extent(const PreparedContour& pc, std::size_t k);

/// Append the part of one prepared contour inside `band` to `bt`, without
/// rect-clipping the contour: every bound is y-monotone, so the edges
/// meeting the band (crossing its open interior, bot.y < hi && top.y > lo;
/// touching a scanline at one endpoint is not meeting) form one contiguous
/// sub-chain, found with two binary searches over the bound's span of the
/// fragment (O(log n) per bound plus the edges kept). The end edges are cut
/// at the band's scanlines into virtual vertices at geom::x_at_y(bot, top,
/// y) of the *prepared* edge, keeping its dxdy — so the two slabs sharing a
/// cut compute bit-identical vertices for every edge crossing it.
///
/// Bounds whose local minimum lies in [lo, hi) keep their minimum (both of
/// its bounds start there); the others that reach the band enter across
/// its bottom and are listed in bt.entering. A bound that continues above
/// `hi` ends on the top scanline with next == kLeavesBand. Minima are
/// appended unsorted (finish with sort_minima). With `minimum` >= 0 only
/// that local minimum's two bounds are cut. Returns the number of edges
/// appended.
std::size_t append_band_cut(BoundTable& bt, const PreparedContour& pc,
                            const Band& band, std::int32_t minimum = -1);

/// The band builder of the slab engines: append every unit of one slab
/// (one input's overlap list, in order) to `bt`. A whole contour whose
/// prepared box lies in the band is copied whole (append_prepared); other
/// whole contours and single minima are cut (append_band_cut). Listing a
/// contour whole or as all of its minima that meet the band builds the
/// same table. `touched_edges`, when given, accumulates the edges appended
/// — summed over all slabs, the number of (edge, band) pairs that meet.
///
/// Returns false when a contour carries a non-finite vertex (the caller
/// fails the slab attempt). Fires the kFusedBounds fault-injection site on
/// entry; its corruption hook reports a poisoned fragment through the same
/// false return.
bool build_band(std::span<const BandRef> refs, const Band& band,
                BoundTable& bt, std::int64_t* touched_edges = nullptr);

}  // namespace psclip::seq
