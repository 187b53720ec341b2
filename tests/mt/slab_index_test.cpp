#include "mt/slab_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/arena.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BBox;
using geom::BoolOp;
using geom::Contour;
using geom::PolygonSet;

/// O(n·p) reference: the broadcast overlap test of every box against every
/// slab, expressed as index entries. Closed-interval y-overlap.
std::vector<std::vector<SlabEntry>> brute_force(
    const std::vector<BBox>& boxes, const std::vector<double>& bounds) {
  std::vector<std::vector<SlabEntry>> per_slab(bounds.size() - 1);
  for (std::size_t t = 0; t + 1 < bounds.size(); ++t) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      const BBox& b = boxes[i];
      if (b.empty() || !b.overlaps_y(bounds[t], bounds[t + 1])) continue;
      per_slab[t].push_back({static_cast<std::uint32_t>(i)});
    }
  }
  return per_slab;
}

void expect_index_equals(const SlabContourIndex& idx,
                         const std::vector<std::vector<SlabEntry>>& want) {
  ASSERT_EQ(idx.num_slabs(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    const auto got = idx.slab(t);
    ASSERT_EQ(got.size(), want[t].size()) << "slab " << t;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].contour, want[t][k].contour) << "slab " << t;
      if (k > 0)
        EXPECT_LT(got[k - 1].contour, got[k].contour)
            << "slab list not ascending";
    }
  }
}

/// Interior boundaries strictly increase, lie strictly inside (lo, hi) and
/// coincide with no event — the contract both engines place slabs by.
void expect_cuts_between_events(const std::vector<double>& events, double lo,
                                double hi, unsigned slabs) {
  const std::vector<double> bounds = slab_bounds(events, lo, hi, slabs);
  ASSERT_GE(bounds.size(), 2u);
  ASSERT_LE(bounds.size(), slabs + 1u);
  EXPECT_EQ(bounds.front(), lo);
  EXPECT_EQ(bounds.back(), hi);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    ASSERT_LT(bounds[i - 1], bounds[i]) << "slabs=" << slabs << " i=" << i;
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i)
    EXPECT_FALSE(std::binary_search(events.begin(), events.end(), bounds[i]))
        << "slabs=" << slabs << ": cut " << i << " = " << bounds[i]
        << " lies on an event";
}

// Two ordinates one ULP apart: their midpoint rounds onto one of them, so
// the cut must move to the next gap instead of landing on a vertex.
TEST(SlabBounds, CutSkipsGapBetweenOneUlpNeighbours) {
  const double y = 10.0;
  const std::vector<double> events{0.0, 1.0, y, std::nextafter(y, 20.0),
                                   20.0, 30.0};
  EXPECT_EQ(slab_bounds(events, -1.0, 31.0, 2),
            (std::vector<double>{-1.0, 15.0, 31.0}));
  for (unsigned slabs = 1; slabs <= 8; ++slabs)
    expect_cuts_between_events(events, -1.0, 31.0, slabs);
}

// Equal events (shared MBR y-extents in the multiset engine) leave no room
// either.
TEST(SlabBounds, CutSkipsRunOfEqualEvents) {
  const std::vector<double> events{1.0, 2.0, 2.0, 2.0, 3.0};
  EXPECT_EQ(slab_bounds(events, 0.0, 4.0, 2),
            (std::vector<double>{0.0, 2.5, 4.0}));
  for (unsigned slabs = 1; slabs <= 8; ++slabs)
    expect_cuts_between_events(events, 0.0, 4.0, slabs);
}

// Random sorted events dense in 1-ULP neighbour pairs, every slab count up
// to 24.
TEST(SlabBounds, RandomEventsWithUlpNeighbours) {
  std::mt19937_64 rng(515);
  std::uniform_real_distribution<double> u(-50.0, 50.0);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> events;
    for (int i = 0; i < 30; ++i) {
      const double v = u(rng);
      events.push_back(v);
      if (i % 2 == 0) events.push_back(std::nextafter(v, 100.0));
      if (i % 7 == 0) events.push_back(v);
    }
    std::sort(events.begin(), events.end());
    for (unsigned slabs = 1; slabs <= 24; ++slabs)
      expect_cuts_between_events(events, -51.0, 51.0, slabs);
  }
}

TEST(SlabIndex, MatchesBruteForceOnRandomField) {
  par::ThreadPool pool(4);
  const PolygonSet field = data::polygon_field(42, 80, 100.0, 10);
  const std::vector<BBox> boxes = geom::contour_bounds(field);
  for (const std::size_t nslabs : {1u, 3u, 7u, 16u, 64u}) {
    std::vector<double> bounds;
    for (std::size_t t = 0; t <= nslabs; ++t)
      bounds.push_back(-1.0 + 102.0 * static_cast<double>(t) /
                                  static_cast<double>(nslabs));
    const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
    expect_index_equals(idx, brute_force(boxes, bounds));
    EXPECT_GE(idx.total_entries(),
              static_cast<std::int64_t>(field.num_contours()));
  }
}

TEST(SlabIndex, ContourTouchingSlabBoundaryIsInBothSlabs) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 10.0, 20.0};
  // ymax lands exactly on the interior boundary: closed intervals put the
  // contour in slab 0 (fully inside) *and* slab 1 (touching its bottom).
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{2.0, 1.0});
  boxes[0].expand(geom::Point{5.0, 10.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  ASSERT_EQ(idx.num_slabs(), 2u);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  ASSERT_EQ(idx.slab(1).size(), 1u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, ZeroHeightContourOnBoundaryIsInsideBothSlabs) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 10.0, 20.0};
  // Degenerate horizontal contour sitting exactly on the boundary: its
  // closed y-interval [10, 10] is contained in both [0, 10] and [10, 20],
  // so it must be listed in *both* slabs.
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{2.0, 10.0});
  boxes[0].expand(geom::Point{7.0, 10.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  ASSERT_EQ(idx.slab(1).size(), 1u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, DegenerateAndOutOfRangeContours) {
  par::ThreadPool pool(2);
  const std::vector<double> bounds = {0.0, 5.0, 10.0};
  std::vector<BBox> boxes(4);
  // boxes[0]: never expanded — empty bbox, must produce no entries.
  boxes[1].expand(geom::Point{1.0, -3.0});  // entirely below bounds.front()
  boxes[1].expand(geom::Point{2.0, -1.0});
  boxes[2].expand(geom::Point{1.0, 12.0});  // entirely above bounds.back()
  boxes[2].expand(geom::Point{2.0, 14.0});
  boxes[3].expand(geom::Point{0.0, 2.0});  // ordinary, slab 0 only
  boxes[3].expand(geom::Point{9.0, 3.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  EXPECT_EQ(idx.total_entries(), 1);
  ASSERT_EQ(idx.slab(0).size(), 1u);
  EXPECT_EQ(idx.slab(0)[0].contour, 3u);
  EXPECT_EQ(idx.slab(1).size(), 0u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, EmptySlabsGetEmptyLists) {
  par::ThreadPool pool(2);
  // All contours cluster in the outermost slabs; the middle ones are empty
  // but must still be addressable with valid (empty) spans.
  std::vector<double> bounds;
  for (int t = 0; t <= 8; ++t) bounds.push_back(static_cast<double>(10 * t));
  std::vector<BBox> boxes(2);
  boxes[0].expand(geom::Point{0.0, 1.0});
  boxes[0].expand(geom::Point{5.0, 4.0});
  boxes[1].expand(geom::Point{0.0, 76.0});
  boxes[1].expand(geom::Point{5.0, 79.0});
  const SlabContourIndex idx = build_slab_index(pool, boxes, bounds);
  EXPECT_EQ(idx.slab(0).size(), 1u);
  for (std::size_t t = 1; t < 7; ++t) EXPECT_EQ(idx.slab(t).size(), 0u);
  EXPECT_EQ(idx.slab(7).size(), 1u);
  expect_index_equals(idx, brute_force(boxes, bounds));
}

TEST(SlabIndex, NoBoundsOrNoBoxes) {
  par::ThreadPool pool(2);
  std::vector<BBox> boxes(1);
  boxes[0].expand(geom::Point{0.0, 0.0});
  boxes[0].expand(geom::Point{1.0, 1.0});
  EXPECT_EQ(build_slab_index(pool, boxes, std::vector<double>{}).num_slabs(),
            0u);
  const SlabContourIndex idx =
      build_slab_index(pool, std::vector<BBox>{}, std::vector<double>{0., 1.});
  EXPECT_EQ(idx.num_slabs(), 1u);
  EXPECT_EQ(idx.total_entries(), 0);
}

void expect_identical(const PolygonSet& a, const PolygonSet& b,
                      const char* what) {
  ASSERT_EQ(a.num_contours(), b.num_contours()) << what;
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    ASSERT_EQ(a.contours[i].pts.size(), b.contours[i].pts.size()) << what;
    EXPECT_EQ(a.contours[i].hole, b.contours[i].hole) << what;
    for (std::size_t j = 0; j < a.contours[i].pts.size(); ++j) {
      EXPECT_EQ(a.contours[i].pts[j].x, b.contours[i].pts[j].x) << what;
      EXPECT_EQ(a.contours[i].pts[j].y, b.contours[i].pts[j].y) << what;
    }
  }
}

TEST(Algorithm2Partition, IndexedMatchesBroadcastBitForBit) {
  par::ThreadPool pool(4);
  const PolygonSet a = data::polygon_field(101, 40, 60.0, 11);
  const PolygonSet b = data::polygon_field(202, 36, 60.0, 9);
  for (const unsigned slabs : {1u, 4u, 9u, 16u}) {
    for (const BoolOp op : geom::kAllOps) {
      // The index-driven partition is the fused healthy rung; the forced
      // retry runs the broadcast partition on every slab.
      test::ForceRetrySink force_retry;
      Alg2Options oi, ob;
      oi.slabs = ob.slabs = slabs;
      ob.trace_sink = &force_retry;
      Alg2Stats si, sb;
      const PolygonSet ri = slab_clip(a, b, op, pool, oi, &si);
      const PolygonSet rb = slab_clip(a, b, op, pool, ob, &sb);
      expect_identical(ri, rb, geom::to_string(op));
      ASSERT_TRUE(test::all_slabs_retried(sb));
      // The deterministic partition-work metric: the index must never read
      // more input than the broadcast scan, and strictly less once the
      // field is spread over several slabs.
      std::int64_t ti = 0, tb = 0;
      for (const auto& s : si.slabs) ti += s.touched_edges;
      for (const auto& s : sb.slabs) tb += s.touched_edges;
      const auto total = static_cast<std::int64_t>(
          (a.num_vertices() + b.num_vertices()) * si.slabs.size());
      EXPECT_EQ(tb, total);
      EXPECT_LE(ti, tb);
      if (slabs >= 4) EXPECT_LT(ti, tb);
    }
  }
}

TEST(Algorithm2Partition, InputEdgesReportPostIndexVattiWork) {
  // input_edges must be the bound-edge count the slab's Vatti sweep really
  // processed (post-partition, post-cleaning) — equal to what a direct
  // vatti_clip on the same slab inputs reports, and 0 for empty slabs.
  par::ThreadPool pool(2);
  const PolygonSet a = data::polygon_field(303, 20, 40.0, 8);
  const PolygonSet b = data::polygon_field(404, 18, 40.0, 8);
  Alg2Options o;
  o.slabs = 6;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  std::int64_t swept = 0;
  for (const auto& s : st.slabs) {
    EXPECT_GE(s.input_edges, 0);
    swept += s.input_edges;
  }
  // Slab partitioning duplicates straddling contours, so the summed swept
  // edges are at least the edges one unpartitioned run would sweep.
  seq::VattiStats whole;
  seq::vatti_clip(a, b, BoolOp::kIntersection, &whole);
  EXPECT_GE(swept, whole.edges);
}

TEST(SlabArena, PerThreadReuseAcrossRuns) {
  SlabArena& first = worker_arena();
  SlabArena& second = worker_arena();
  EXPECT_EQ(&first, &second);  // same thread, same arena
  EXPECT_GE(worker_arena_count(), 1u);

  const std::uint64_t runs_before = first.vatti.runs;
  const PolygonSet a = test::random_polygon(11, 16, 0, 0, 5);
  const PolygonSet b = test::random_polygon(12, 14, 1, 0, 4);
  seq::VattiStats s1, s2;
  const PolygonSet r1 =
      seq::vatti_clip(a, b, BoolOp::kIntersection, &s1, &first.vatti);
  const PolygonSet r2 =
      seq::vatti_clip(a, b, BoolOp::kIntersection, &s2, &first.vatti);
  EXPECT_EQ(first.vatti.runs, runs_before + 2);
  expect_identical(r1, r2, "scratch reuse");
  const PolygonSet fresh = seq::vatti_clip(a, b, BoolOp::kIntersection);
  expect_identical(r1, fresh, "scratch vs fresh");
}

}  // namespace
}  // namespace psclip::mt
