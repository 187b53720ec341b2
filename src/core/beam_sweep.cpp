#include "core/beam_sweep.hpp"

#include <algorithm>
#include <unordered_map>

#include "geom/intersect.hpp"
#include "parallel/inversions.hpp"
#include "seq/out_poly.hpp"
#include "seq/sweep_events.hpp"

namespace psclip::core {
namespace {

using geom::Point;

double x_on(const seq::BoundEdge& e, double y) {
  if (e.bot.y == y) return e.bot.x;
  if (e.top.y == y) return e.top.x;
  return geom::x_at_y(e.bot, e.top, y);
}

}  // namespace

BeamResult process_beam(const seq::BoundTable& bt,
                        std::span<const std::int32_t> edge_ids, double yb,
                        double yt, geom::BoolOp op) {
  BeamResult result;
  if (edge_ids.size() < 2) return result;

  auto edge = [&bt](std::int32_t e) -> const seq::BoundEdge& {
    return bt.edges[static_cast<std::size_t>(e)];
  };

  // --- Lemma 1: order edges on the lower scanline. ---
  struct Ranked {
    std::int32_t e;
    double xb, xt;
  };
  std::vector<Ranked> order(edge_ids.size());
  for (std::size_t i = 0; i < edge_ids.size(); ++i) {
    const auto& be = edge(edge_ids[i]);
    order[i] = {edge_ids[i], x_on(be, yb), x_on(be, yt)};
  }
  std::sort(order.begin(), order.end(), [&](const Ranked& a, const Ranked& b) {
    if (a.xb != b.xb) return a.xb < b.xb;
    return edge(a.e).dxdy < edge(b.e).dxdy;
  });
  // Sweep status (entries) with x on both scanlines, index-aligned.
  const std::size_t n = order.size();
  std::vector<seq::SweepEntry> ents(n);
  std::vector<double> xb(n), xt(n);
  for (std::size_t i = 0; i < n; ++i) {
    ents[i].e = order[i].e;
    xb[i] = order[i].xb;
    xt[i] = order[i].xt;
  }

  // --- Lemma 2/3: the parity prefix classifies contributing spans, and
  // partial polygons open along the lower scanline between consecutive
  // contributing edges (the rule the slab engine's band sweep shares). ---
  seq::assign_parity(ents, bt);
  seq::OutPolyPool pool;
  seq::open_scanline(pool, ents, xb, bt, yb, op);

  // --- Lemma 4: crossings = inversions between lower and upper orders,
  // reported by the extended-mergesort machinery. ---
  {
    // Rank of each entry in the upper-scanline order.
    std::vector<std::int32_t> idx(n);
    for (std::size_t i = 0; i < idx.size(); ++i)
      idx[i] = static_cast<std::int32_t>(i);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return xt[static_cast<std::size_t>(a)] <
                              xt[static_cast<std::size_t>(b)];
                     });
    std::vector<std::int32_t> rank(n);
    for (std::size_t r2 = 0; r2 < idx.size(); ++r2)
      rank[static_cast<std::size_t>(idx[r2])] = static_cast<std::int32_t>(r2);

    auto pairs = par::report_inversions(rank);
    result.intersections = static_cast<std::int64_t>(pairs.size());

    if (!pairs.empty()) {
      struct Ev {
        std::int32_t eu, ev;
        Point p;
      };
      std::vector<Ev> events;
      events.reserve(pairs.size());
      for (const auto& [i, j] : pairs) {
        const std::int32_t eu = ents[static_cast<std::size_t>(i)].e;
        const std::int32_t ev = ents[static_cast<std::size_t>(j)].e;
        events.push_back({eu, ev,
                          geom::line_intersection(edge(eu).bot, edge(eu).top,
                                                  edge(ev).bot, edge(ev).top)});
      }
      std::stable_sort(events.begin(), events.end(),
                       [](const Ev& a, const Ev& b) { return a.p.y < b.p.y; });

      std::unordered_map<std::int32_t, std::size_t> pos;
      pos.reserve(n * 2);
      for (std::size_t i = 0; i < n; ++i) pos[ents[i].e] = i;
      auto cross = [&](const Ev& ev) {
        std::size_t iu = pos[ev.eu];
        std::size_t iv = pos[ev.ev];
        if (iu > iv) std::swap(iu, iv);
        seq::emit_crossing(pool, ents[iu], edge(ents[iu].e).is_clip,
                           ents[iv], edge(ents[iv].e).is_clip, ev.p, op);
        std::swap(ents[iu], ents[iv]);
        std::swap(xt[iu], xt[iv]);
        pos[ents[iu].e] = iu;
        pos[ents[iv].e] = iv;
      };

      std::vector<Ev> pending(std::move(events));
      std::vector<Ev> deferred;
      while (!pending.empty()) {
        bool progress = false;
        deferred.clear();
        for (const Ev& ev : pending) {
          const std::size_t iu = pos[ev.eu];
          const std::size_t iv = pos[ev.ev];
          if (std::max(iu, iv) == std::min(iu, iv) + 1) {
            cross(ev);
            progress = true;
          } else {
            deferred.push_back(ev);
          }
        }
        pending.swap(deferred);
        if (!progress && !pending.empty()) {
          // Coincident-crossing tie (e.g. three nearly concurrent edges):
          // force-process each remaining event as if adjacent and rebuild
          // the parity flags wholesale, so partial contours stay attached
          // and close.
          for (const Ev& ev : pending) {
            cross(ev);
            seq::assign_parity(ents, bt);
          }
          break;
        }
      }
    }
  }

  // --- Close partial polygons along the upper scanline, again pairing
  // consecutive contributing edges. ---
  seq::close_scanline(pool, ents, xt, bt, yt, op);

  // --- Harvest rings. The pool orients material rings counter-clockwise
  // and holes clockwise. Holes arise when an exterior pocket opens at a
  // crossing and closes at another crossing strictly inside the beam
  // (pockets that reach a scanline merge into the material ring there);
  // they carry no scanline-horizontal edges, so the merge phase passes
  // them through and their negative signed area keeps even-odd accounting
  // exact.
  geom::PolygonSet raw = pool.harvest();
  result.rings.reserve(raw.contours.size());
  for (auto& c : raw.contours) result.rings.push_back(std::move(c));
  return result;
}

}  // namespace psclip::core
