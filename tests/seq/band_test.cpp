// The band builder (seq/band.hpp) and the open-band sweep.
//
// A slab's table holds each prepared bound cut to the slab's band: the
// sub-chain meeting the band, its end edges ending in virtual vertices on
// the band's scanlines. These tests pin the builder's structural contract
// (every emitted edge lies in the band, chains end at a local maximum or on
// the top scanline, entering bounds start on the bottom one), the
// bit-identity of a cut shared by two neighbouring bands, the exact
// edge-band count behind SlabLoad::touched_edges, and that sweeping the
// bands one by one tiles the whole-input clip.

#include "seq/band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/area_oracle.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::seq {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

constexpr double kInf = std::numeric_limits<double>::infinity();

PreparedContour prepared(const PolygonSet& p, bool is_clip = false) {
  PreparedContour pc;
  EXPECT_TRUE(prepare_contour(p.contours.at(0), is_clip, pc));
  return pc;
}

/// Random simple and self-crossing contours of a few sizes.
std::vector<PreparedContour> sample_contours() {
  std::vector<PreparedContour> out;
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    for (const bool sx : {false, true})
      out.push_back(prepared(test::random_polygon(
          seed * 17 + (sx ? 1 : 0), 12 + static_cast<int>(seed) * 9, 0, 0,
          10, sx)));
  return out;
}

/// Interior cut ordinates for a contour: quantiles of its box plus every
/// fifth vertex y exactly (cuts through vertices are the degenerate case).
std::vector<double> cuts_for(const PreparedContour& pc) {
  std::vector<double> cuts;
  for (int q = 1; q < 6; ++q)
    cuts.push_back(pc.box.ymin + pc.box.height() * q / 6.0);
  for (std::size_t i = 0; i < pc.pts.size(); i += 5)
    cuts.push_back(pc.pts[i].y);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

bool same_edge(const BoundEdge& a, const BoundEdge& b) {
  return a.bot == b.bot && a.top == b.top && a.dxdy == b.dxdy &&
         a.is_clip == b.is_clip && a.next == b.next;
}

void expect_same_table(const BoundTable& got, const BoundTable& want) {
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < got.edges.size(); ++i)
    EXPECT_TRUE(same_edge(got.edges[i], want.edges[i])) << "edge " << i;
  ASSERT_EQ(got.minima.size(), want.minima.size());
  for (std::size_t i = 0; i < got.minima.size(); ++i) {
    EXPECT_EQ(got.minima[i].pt, want.minima[i].pt);
    EXPECT_EQ(got.minima[i].edge_left, want.minima[i].edge_left);
    EXPECT_EQ(got.minima[i].edge_right, want.minima[i].edge_right);
  }
  EXPECT_EQ(got.entering, want.entering);
}

TEST(BandBuilder, UnboundedBandCopiesTheFragment) {
  for (const PreparedContour& pc : sample_contours()) {
    BoundTable cut, copy;
    EXPECT_EQ(append_band_cut(cut, pc, Band{}), pc.bt.edges.size());
    append_prepared(copy, pc);
    expect_same_table(cut, copy);
    EXPECT_TRUE(cut.entering.empty());
  }
}

TEST(BandBuilder, EmittedEdgesLieInTheBand) {
  for (const PreparedContour& pc : sample_contours()) {
    const std::vector<double> cuts = cuts_for(pc);
    for (std::size_t a = 0; a < cuts.size(); ++a) {
      for (std::size_t b = a + 1; b < cuts.size(); ++b) {
        const Band band{cuts[a], cuts[b]};
        BoundTable bt;
        append_band_cut(bt, pc, band);
        for (const BoundEdge& e : bt.edges) {
          EXPECT_LE(band.lo, e.bot.y);
          EXPECT_LT(e.bot.y, e.top.y);
          EXPECT_LE(e.top.y, band.hi);
        }
        // Every edge lies on exactly one chain, from a minimum in [lo, hi)
        // or an entering head on the bottom scanline, to a local maximum
        // or the top scanline.
        std::vector<int> seen(bt.edges.size(), 0);
        const auto walk = [&](std::int32_t head) {
          std::int32_t e = head;
          while (true) {
            const BoundEdge& x = bt.edges[static_cast<std::size_t>(e)];
            ++seen[static_cast<std::size_t>(e)];
            if (x.next == kLeavesBand) {
              EXPECT_EQ(x.top.y, band.hi);
              return;
            }
            if (x.next == -1) return;
            EXPECT_EQ(bt.edges[static_cast<std::size_t>(x.next)].bot, x.top);
            e = x.next;
          }
        };
        for (const LocalMin& lm : bt.minima) {
          EXPECT_LE(band.lo, lm.pt.y);
          EXPECT_LT(lm.pt.y, band.hi);
          EXPECT_EQ(bt.edges[static_cast<std::size_t>(lm.edge_left)].bot,
                    lm.pt);
          EXPECT_EQ(bt.edges[static_cast<std::size_t>(lm.edge_right)].bot,
                    lm.pt);
          walk(lm.edge_left);
          walk(lm.edge_right);
        }
        for (const std::int32_t head : bt.entering) {
          EXPECT_EQ(bt.edges[static_cast<std::size_t>(head)].bot.y, band.lo);
          walk(head);
        }
        for (std::size_t i = 0; i < seen.size(); ++i)
          EXPECT_EQ(seen[i], 1) << "edge " << i;
      }
    }
  }
}

// The two bands sharing a cut emit the same virtual vertices for every
// edge crossing it, bit for bit: the lower band's leaving tops are the
// upper band's entering bottoms.
TEST(BandBuilder, SharedCutIsBitIdentical) {
  std::size_t checked = 0;
  for (const PreparedContour& pc : sample_contours()) {
    for (const double c : cuts_for(pc)) {
      BoundTable below, above;
      append_band_cut(below, pc, Band{-kInf, c});
      append_band_cut(above, pc, Band{c, kInf});
      std::vector<std::pair<std::uint64_t, std::uint64_t>> tops, bots;
      for (const BoundEdge& e : below.edges)
        if (e.next == kLeavesBand)
          tops.emplace_back(std::bit_cast<std::uint64_t>(e.top.x),
                            std::bit_cast<std::uint64_t>(e.top.y));
      for (const std::int32_t head : above.entering) {
        const BoundEdge& e = above.edges[static_cast<std::size_t>(head)];
        bots.emplace_back(std::bit_cast<std::uint64_t>(e.bot.x),
                          std::bit_cast<std::uint64_t>(e.bot.y));
      }
      std::sort(tops.begin(), tops.end());
      std::sort(bots.begin(), bots.end());
      EXPECT_EQ(tops, bots) << "cut " << c;
      checked += tops.size();
    }
  }
  EXPECT_GT(checked, 100u);
}

// Σ over bands of the edges appended == Σ over prepared edges of the bands
// each meets — the exact partition work SlabLoad::touched_edges reports.
// Listing a contour as its single minima (the healthy rung's index units)
// builds the same table as listing it whole (the retry rung).
TEST(BandBuilder, CountsEveryEdgeBandPairAndMinimaUnitsMatchWhole) {
  for (const PreparedContour& pc : sample_contours()) {
    std::vector<double> bounds{-kInf};
    for (const double c : cuts_for(pc)) bounds.push_back(c);
    bounds.push_back(kInf);
    std::int64_t appended = 0, meets = 0;
    for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
      const Band band{bounds[t], bounds[t + 1]};
      for (const BoundEdge& e : pc.bt.edges)
        meets += e.bot.y < band.hi && e.top.y > band.lo ? 1 : 0;
      BoundTable whole, units;
      const BandRef ref{&pc, -1};
      ASSERT_TRUE(build_band({&ref, 1}, band, whole, &appended));
      std::vector<BandRef> refs;
      for (std::size_t k = 0; k < pc.bt.minima.size(); ++k) {
        const geom::BBox ext = minimum_extent(pc, k);
        if (ext.ymin <= band.hi && ext.ymax >= band.lo)
          refs.push_back({&pc, static_cast<std::int32_t>(k)});
      }
      ASSERT_TRUE(build_band(refs, band, units));
      expect_same_table(units, whole);
    }
    EXPECT_EQ(appended, meets);
  }
}

TEST(BandBuilder, NonFiniteContourFailsTheBuild) {
  PreparedContour pc = prepared(test::random_polygon(3, 20, 0, 0, 10));
  pc.finite = false;
  const BandRef ref{&pc, -1};
  BoundTable bt;
  EXPECT_FALSE(build_band({&ref, 1}, Band{}, bt));
  EXPECT_TRUE(bt.edges.empty());
}

/// Sweep one band of a subject/clip pair the way a slab does: cut tables,
/// schedule = band ends + the prepared ys strictly inside.
PolygonSet sweep_band(const PreparedContour& a, const PreparedContour& b,
                      const Band& band, BoolOp op, SweepKernel kernel) {
  VattiScratch sc;
  BoundTable& bt = scratch_bounds(sc);
  bt.clear();
  const BandRef refs[] = {{&a, -1}, {&b, -1}};
  EXPECT_TRUE(build_band(refs, band, bt));
  sort_minima(bt);
  std::vector<double>& ys = scratch_schedule(sc);
  ys.clear();
  for (const PreparedContour* pc : {&a, &b})
    for (const double y : pc->ys)
      if (band.lo < y && y < band.hi) ys.push_back(y);
  if (band.lo > -kInf) ys.push_back(band.lo);
  if (band.hi < kInf) ys.push_back(band.hi);
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  return vatti_sweep_prepared(op, nullptr, sc, kernel,
                              /*prebuilt_schedule=*/true);
}

// Open bands tile the plane: the band outputs stay inside their bands and
// their areas sum to the whole-input clip's, for every op and both
// kernels, with cuts through vertices and between them.
TEST(BandSweep, BandsTileTheWholeInputClip) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const PolygonSet a = test::random_polygon(seed * 2 + 1, 40, 0, 0, 10,
                                              /*self_intersecting=*/seed == 3);
    const PolygonSet b = test::random_polygon(seed * 2 + 2, 30, 1, -1, 9);
    const PreparedContour pa = prepared(a, false);
    const PreparedContour pb = prepared(b, true);
    std::vector<double> bounds{-kInf};
    for (const double c : cuts_for(pa)) bounds.push_back(c);
    bounds.push_back(kInf);
    for (const BoolOp op : geom::kAllOps) {
      const double want = geom::signed_area(vatti_clip(a, b, op));
      for (const SweepKernel kernel :
           {SweepKernel::kTuned, SweepKernel::kReference}) {
        double got = 0.0;
        for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
          const Band band{bounds[t], bounds[t + 1]};
          const PolygonSet part = sweep_band(pa, pb, band, op, kernel);
          for (const geom::Contour& c : part.contours)
            for (const geom::Point& p : c.pts) {
              EXPECT_LE(band.lo, p.y);
              EXPECT_LE(p.y, band.hi);
            }
          got += geom::signed_area(part);
        }
        EXPECT_TRUE(test::areas_match(got, want, 1e-9))
            << "seed " << seed << " op " << geom::to_string(op) << ": "
            << got << " vs " << want;
        EXPECT_TRUE(test::areas_match(
            got, geom::boolean_area_oracle(a, b, op), 1e-5));
      }
    }
  }
}

}  // namespace
}  // namespace psclip::seq
