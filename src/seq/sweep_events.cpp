#include "seq/sweep_events.hpp"

#include <cstdio>
#include <cstdlib>

namespace psclip::seq {

void emit_crossing(OutPolyPool& pool, SweepEntry& u, bool u_is_clip,
                   SweepEntry& v, bool v_is_clip, const geom::Point& p,
                   geom::BoolOp op) {
  const bool fsu = !u_is_clip, fcu = u_is_clip;
  const bool fsv = !v_is_clip, fcv = v_is_clip;
  auto res = [op](bool s, bool c) { return geom::in_result(s, c, op); };

  // Sector occupancy around p, counter-clockwise from West:
  //   W (left of both), S (between, below), E (right of both),
  //   N (between, above). Boundary b separates sec[b] from sec[(b+1)%4]:
  //   0 = u-below, 1 = v-below, 2 = u-above, 3 = v-above.
  const bool sec[4] = {
      res(u.left_s, u.left_c),                          // W
      res(u.left_s ^ fsu, u.left_c ^ fcu),              // S
      res(u.left_s ^ fsu ^ fsv, u.left_c ^ fcu ^ fcv),  // E
      res(u.left_s ^ fsv, u.left_c ^ fcv),              // N
  };

  std::int32_t u_above = -1, v_above = -1;

  static const bool trace = std::getenv("PSCLIP_TRACE") != nullptr;
  if (trace)
    std::fprintf(stderr,
                 "[x] p=(%.9f,%.9f) u=%d v=%d uflags=(%d,%d) upoly=%d "
                 "vpoly=%d sec=%d%d%d%d\n",
                 p.x, p.y, u.e, v.e, (int)u.left_s, (int)u.left_c, u.poly,
                 v.poly, (int)sec[0], (int)sec[1], (int)sec[2], (int)sec[3]);

  struct Half {
    bool below;
    SweepEntry* ent;
  };
  const Half halves[4] = {{true, &u}, {true, &v}, {false, &u}, {false, &v}};

  // Continuations are resolved to physical list ends first and applied
  // afterwards: when both crossing edges extend the *same* partial contour
  // (its two ends meeting at a self-intersection), applying the first
  // reassignment would corrupt the owner lookup of the second.
  struct Continuation {
    OutPolyPool::EndRef ref;
    SweepEntry* above;
    std::int32_t below_poly;
  };
  Continuation conts[2];
  int n_conts = 0;

  for (int b = 0; b < 4; ++b) {
    const int after = (b + 1) % 4;
    if (sec[b] || !sec[after]) continue;  // b starts a run iff ext -> int
    int e2 = after;  // find the run's end boundary (int -> ext)
    while (sec[(e2 + 1) % 4]) e2 = (e2 + 1) % 4;
    const Half h1 = halves[b];
    const Half h2 = halves[e2];

    if (h1.below && h2.below) {
      // Local maximum of the result at p.
      if (h1.ent->poly >= 0 && h2.ent->poly >= 0)
        pool.close(h1.ent->poly, h1.ent->e, h2.ent->poly, h2.ent->e, p);
    } else if (!h1.below && !h2.below) {
      // Local minimum of the result at p. If N is the interior wedge the
      // new contour is exterior and v (left above the swap) feeds the
      // front; otherwise the interior surrounds p and a hole opens.
      const std::int32_t np = sec[3]
                                  ? pool.create(p, /*hole=*/false, v.e, u.e)
                                  : pool.create(p, /*hole=*/true, u.e, v.e);
      u_above = np;
      v_above = np;
    } else {
      const Half below = h1.below ? h1 : h2;
      const Half above = h1.below ? h2 : h1;
      if (below.ent->poly >= 0) {
        conts[n_conts++] = {pool.locate_end(below.ent->poly, below.ent->e),
                            above.ent, below.ent->poly};
      }
    }
  }
  for (int ci = 0; ci < n_conts; ++ci) {
    pool.extend_reassign_end(conts[ci].ref, p, conts[ci].above->e);
    (conts[ci].above == &u ? u_above : v_above) = conts[ci].below_poly;
  }

  // Post-swap parity flags: v moves left of u.
  const bool ls = u.left_s, lc = u.left_c;
  v.left_s = ls;
  v.left_c = lc;
  u.left_s = ls ^ fsv;
  u.left_c = lc ^ fcv;
  u.poly = u_above;
  v.poly = v_above;
}

void assign_parity(std::span<SweepEntry> ents, const BoundTable& bt) {
  bool s = false, c = false;
  for (SweepEntry& en : ents) {
    en.left_s = s;
    en.left_c = c;
    const bool clip = bt.edges[static_cast<std::size_t>(en.e)].is_clip;
    s ^= !clip;
    c ^= clip;
  }
}

namespace {

/// Walk `ents` in x order and hand every (left, right) pair of consecutive
/// contributing entries with the interior between them to `pair`.
template <typename Pair>
void for_each_interior_pair(std::span<SweepEntry> ents, const BoundTable& bt,
                            geom::BoolOp op, Pair pair) {
  std::size_t open_left = ents.size();  // none
  for (std::size_t i = 0; i < ents.size(); ++i) {
    const SweepEntry& en = ents[i];
    const bool clip = bt.edges[static_cast<std::size_t>(en.e)].is_clip;
    const bool lhs = geom::in_result(en.left_s, en.left_c, op);
    const bool rhs = geom::in_result(en.left_s ^ !clip, en.left_c ^ clip, op);
    if (lhs == rhs) continue;  // not contributing
    if (rhs) {
      open_left = i;  // interior opens to the right of this edge
    } else if (open_left != ents.size()) {
      pair(open_left, i);
      open_left = ents.size();
    }
  }
}

}  // namespace

void open_scanline(OutPolyPool& pool, std::span<SweepEntry> ents,
                   std::span<const double> x, const BoundTable& bt, double y,
                   geom::BoolOp op) {
  for_each_interior_pair(ents, bt, op, [&](std::size_t l, std::size_t r) {
    const geom::Point pl{x[l], y};
    const geom::Point pr{x[r], y};
    const std::int32_t id =
        pool.create_on_scanline(pl, ents[l].e, ents[r].e);
    if (!(pr == pl)) pool.extend(id, ents[r].e, pr);
    ents[l].poly = id;
    ents[r].poly = id;
  });
}

void close_scanline(OutPolyPool& pool, std::span<SweepEntry> ents,
                    std::span<const double> x, const BoundTable& bt, double y,
                    geom::BoolOp op) {
  for_each_interior_pair(ents, bt, op, [&](std::size_t l, std::size_t r) {
    const SweepEntry& el = ents[l];
    const SweepEntry& er = ents[r];
    if (el.poly < 0 || er.poly < 0) return;  // degenerate-tie fallback
    const geom::Point pl{x[l], y};
    const geom::Point pr{x[r], y};
    if (!(pl == pr)) pool.extend(el.poly, el.e, pl);
    pool.close(el.poly, el.e, er.poly, er.e, pr);
  });
}

}  // namespace psclip::seq
