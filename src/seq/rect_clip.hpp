#pragma once

#include "geom/bbox.hpp"
#include "geom/polygon.hpp"

namespace psclip::seq {

/// Clipper for rect_clip. The paper evaluates Greiner–Hormann against GPC
/// for the rectangle-clipping steps of Algorithm 2 and picks GH as the
/// faster option. mt::slab_clip does not rect-clip at all — it cuts
/// prepared monotone bounds to each slab's band (seq/band.hpp, DESIGN.md
/// §3) — so rect_clip serves viewport clipping and the
/// bench_ablation_rectclip comparison of the three methods.
enum class RectClipMethod {
  kGreinerHormann,     ///< the paper's choice for Steps 4–5
  kVatti,              ///< general clipper on a rectangle (GPC's role)
  kSutherlandHodgman,  ///< half-plane cascade (bridged output)
};

const char* to_string(RectClipMethod m);

/// Clip `subject` to the axis-aligned rectangle.
///
/// Contours entirely inside are passed through untouched, contours entirely
/// outside are dropped, and only boundary-straddling contours run through
/// the selected clipper (the kRectClip fault-injection site).
geom::PolygonSet rect_clip(const geom::PolygonSet& subject,
                           const geom::BBox& rect,
                           RectClipMethod method = RectClipMethod::kGreinerHormann);

}  // namespace psclip::seq
