#pragma once

#include <cstdint>
#include <span>

#include "geom/bool_op.hpp"
#include "geom/point.hpp"
#include "seq/bounds.hpp"
#include "seq/out_poly.hpp"

namespace psclip::seq {

/// The sweep-status fields shared by the sequential Vatti sweep and by the
/// per-scanbeam processing of Algorithm 1: the current bound edge, the
/// even-odd parity flags to the entry's left (Lemma 1/3), and the output
/// polygon this edge currently extends.
struct SweepEntry {
  std::int32_t e = -1;     ///< bound edge id (index into a BoundTable)
  bool left_s = false;     ///< subject parity to the left
  bool left_c = false;     ///< clip parity to the left
  std::int32_t poly = -1;  ///< out-poly extended by this edge, -1 if none
};

/// Handle the crossing of sweep-status neighbours u (left) and v at point
/// p: emit output vertices by the interior-sector-run rule and leave the
/// two entries' parity flags and poly attachments in their post-swap
/// state. The caller performs the physical swap afterwards.
///
/// This one function replaces Vatti's intersection-vertex classification
/// table: the sectors around p (W, S, E, N) are classified in/out of the
/// boolean result from the parity flags; every maximal interior run of
/// sectors is bounded by two contributing half-edges which connect through
/// p — below+below closes a contour, above+above starts one (exterior ring
/// if the N wedge is interior, hole otherwise), below+above continues one.
/// Self-intersections (u, v from the same input polygon) need no special
/// case: their sector pattern automatically yields the paper's Fig. 5
/// left/right duplication.
void emit_crossing(OutPolyPool& pool, SweepEntry& u, bool u_is_clip,
                   SweepEntry& v, bool v_is_clip, const geom::Point& p,
                   geom::BoolOp op);

/// Lemma 2/3's parity prefix: for sweep entries listed in x order, set each
/// entry's left_s/left_c to the subject/clip parities accumulated over the
/// entries to its left (edge ids index `bt`).
void assign_parity(std::span<SweepEntry> ents, const BoundTable& bt);

/// Open the output polygons along the bottom scanline `y` of a beam or band
/// whose edges are already active there — Algorithm 1 at every beam, the
/// slab engine's band sweep at its first scanline. Entries are in x order
/// with parity flags set and no poly; `x[i]` is entry i's x on `y`. Every
/// interior stretch runs between two consecutive *contributing* entries
/// (result membership flips across them): a polygon opens there with a
/// horizontal bottom side from the left entry's x to the right one's, and
/// both entries own its ends. Non-contributing entries own nothing.
void open_scanline(OutPolyPool& pool, std::span<SweepEntry> ents,
                   std::span<const double> x, const BoundTable& bt, double y,
                   geom::BoolOp op);

/// The matching top: pair consecutive contributing entries along scanline
/// `y` again and close the polygons they own with a horizontal top side
/// (a pair owning two different partial polygons joins them). `x[i]` is
/// entry i's x on `y`.
void close_scanline(OutPolyPool& pool, std::span<SweepEntry> ents,
                    std::span<const double> x, const BoundTable& bt, double y,
                    geom::BoolOp op);

}  // namespace psclip::seq
