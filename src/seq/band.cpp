#include "seq/band.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "geom/intersect.hpp"
#include "parallel/fault.hpp"

namespace psclip::seq {

namespace {

/// First edge id of the bound pair of minimum k and the end of its second
/// bound (see PreparedContour's fragment layout): the pair occupies
/// [h0, h1) and [h1, end) with h0 < h1.
struct PairSpan {
  std::size_t h0, h1, end;
};

PairSpan pair_span(const BoundTable& t, std::size_t k) {
  const LocalMin& lm = t.minima[k];
  const auto first = [](const LocalMin& m) {
    return static_cast<std::size_t>(std::min(m.edge_left, m.edge_right));
  };
  return {first(lm),
          static_cast<std::size_t>(std::max(lm.edge_left, lm.edge_right)),
          k + 1 < t.minima.size() ? first(t.minima[k + 1]) : t.edges.size()};
}

/// Cut minimum k's two bounds to the band (append_band_cut for one minimum).
void cut_minimum(BoundTable& bt, const PreparedContour& pc, const Band& band,
                 std::size_t k) {
  const std::vector<BoundEdge>& src = pc.bt.edges;

  // Cut the bound occupying src[b, e) to the band; returns the table id of
  // its first kept edge, or -1 when no edge meets the band.
  const auto cut_bound = [&](std::size_t b, std::size_t e) -> std::int32_t {
    const auto first = src.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last = src.begin() + static_cast<std::ptrdiff_t>(e);
    const auto i = std::partition_point(
        first, last, [&](const BoundEdge& x) { return x.top.y <= band.lo; });
    const auto j = std::partition_point(
        i, last, [&](const BoundEdge& x) { return x.bot.y < band.hi; });
    if (i == j) return -1;
    const auto head = static_cast<std::int32_t>(bt.edges.size());
    for (auto it = i; it != j; ++it) {
      BoundEdge x = *it;
      if (x.bot.y < band.lo)
        x.bot = {geom::x_at_y(it->bot, it->top, band.lo), band.lo};
      if (x.top.y > band.hi)
        x.top = {geom::x_at_y(it->bot, it->top, band.hi), band.hi};
      x.next = static_cast<std::int32_t>(bt.edges.size()) + 1;
      bt.edges.push_back(x);
    }
    // The bound's own local maximum is in the band only when its last edge
    // was kept whole; otherwise it continues above the top scanline.
    const bool max_inside = j == last && std::prev(j)->top.y <= band.hi;
    bt.edges.back().next = max_inside ? -1 : kLeavesBand;
    return head;
  };

  const LocalMin& lm = pc.bt.minima[k];
  const PairSpan sp = pair_span(pc.bt, k);
  const std::int32_t c0 = cut_bound(sp.h0, sp.h1);
  const std::int32_t c1 = cut_bound(sp.h1, sp.end);
  if (lm.pt.y >= band.lo) {
    // Minimum in [lo, hi): both bounds start there (or, at or above hi,
    // neither was kept).
    if (c0 < 0) return;
    assert(c1 >= 0);
    LocalMin m = lm;
    const bool left_first = static_cast<std::size_t>(lm.edge_left) == sp.h0;
    m.edge_left = left_first ? c0 : c1;
    m.edge_right = left_first ? c1 : c0;
    bt.minima.push_back(m);
  } else {
    // Minimum below the band: what reaches the band enters across lo.
    if (c0 >= 0) bt.entering.push_back(c0);
    if (c1 >= 0) bt.entering.push_back(c1);
  }
}

}  // namespace

geom::BBox minimum_extent(const PreparedContour& pc, std::size_t k) {
  const PairSpan sp = pair_span(pc.bt, k);
  geom::BBox box;
  box.expand(pc.bt.minima[k].pt);
  box.expand(pc.bt.edges[sp.h1 - 1].top);
  box.expand(pc.bt.edges[sp.end - 1].top);
  return box;
}

std::size_t append_band_cut(BoundTable& bt, const PreparedContour& pc,
                            const Band& band, std::int32_t minimum) {
  const std::size_t before = bt.edges.size();
  if (minimum >= 0) {
    cut_minimum(bt, pc, band, static_cast<std::size_t>(minimum));
  } else {
    for (std::size_t k = 0; k < pc.bt.minima.size(); ++k)
      cut_minimum(bt, pc, band, k);
  }
  return bt.edges.size() - before;
}

bool build_band(std::span<const BandRef> refs, const Band& band,
                BoundTable& bt, std::int64_t* touched_edges) {
  par::fault::inject(par::fault::Site::kFusedBounds);
  bool finite = true;
  std::size_t appended = 0;
  for (const BandRef& ref : refs) {
    const PreparedContour* pc = ref.pc;
    if (pc == nullptr) continue;  // degenerate after prep: no bounds
    if (!pc->finite) {
      // Never cut or sweep poisoned geometry; the caller fails the attempt.
      finite = false;
      continue;
    }
    if (ref.minimum < 0 && band.contains(pc->box)) {
      append_prepared(bt, *pc);
      appended += pc->bt.edges.size();
    } else {
      appended += append_band_cut(bt, *pc, band, ref.minimum);
    }
  }
  if (par::fault::corrupt(par::fault::Site::kFusedBounds)) finite = false;
  if (touched_edges) *touched_edges += static_cast<std::int64_t>(appended);
  return finite;
}

}  // namespace psclip::seq
