// Clipping far from the origin. Every slab cut and every axis-aligned input
// makes horizontal edges, and geom::remove_horizontals must still nudge
// them apart when one ULP of y is larger than the relative nudge quantum
// (|y| above ~4.5e6); seq::martinez_clip, which sweeps along x, nudges
// vertical edges the same way. When the nudge rounded away, these clips
// returned an empty or negative-area result with no degradation recorded.
//
// Areas are measured after translating the output back to the origin: at
// 1e10 the shoelace sum over raw coordinates cancels catastrophically.
// Tolerance: each perturbed vertex moves by at most 17 ULPs of |y|
// (≈2e-3 at 1e12), so the area error is bounded by perimeter × that, a
// relative error below 1e-4 on these shapes. The defect is a total loss
// (relative error 1), far outside it.

#include <gtest/gtest.h>

#include <utility>

#include "data/synthetic.hpp"
#include "mt/algorithm2.hpp"
#include "psclip.hpp"
#include "seq/martinez.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

constexpr double kRelTol = 1e-4;

PolygonSet translated(const PolygonSet& p, double d) {
  PolygonSet q = p;
  for (auto& c : q.contours)
    for (auto& pt : c.pts) {
      pt.x += d;
      pt.y += d;
    }
  return q;
}

/// Area of `p` (which lives at offset `d`) measured at the origin.
double area_at_origin(const PolygonSet& p, double d) {
  return geom::signed_area(translated(p, -d));
}

// Two 100x100 squares overlapping in a 50x50 square.
TEST(LargeMagnitude, OffsetSquaresIntersect) {
  const PolygonSet a =
      geom::make_polygon({{0, 0}, {100, 0}, {100, 100}, {0, 100}});
  const PolygonSet b =
      geom::make_polygon({{50, 50}, {150, 50}, {150, 150}, {50, 150}});
  for (const double d : {1e10, 1e12})
    for (const Engine e : {Engine::kVatti, Engine::kSlab}) {
      const PolygonSet got =
          clip(translated(a, d), translated(b, d), BoolOp::kIntersection, e);
      EXPECT_TRUE(test::areas_match(area_at_origin(got, d), 2500.0, kRelTol))
          << "offset " << d << " engine " << static_cast<int>(e) << ": "
          << got.num_contours() << " contours, area "
          << area_at_origin(got, d);
    }
}

// seq::martinez_clip perturbs vertical edges along x; its step needs the
// same one-ULP floor (it returned 0 contours for the 1e10 intersection).
TEST(LargeMagnitude, MartinezOffsetSquaresAllOps) {
  const PolygonSet a =
      geom::make_polygon({{0, 0}, {100, 0}, {100, 100}, {0, 100}});
  const PolygonSet b =
      geom::make_polygon({{50, 50}, {150, 50}, {150, 150}, {50, 150}});
  const std::pair<BoolOp, double> cases[] = {{BoolOp::kIntersection, 2500.0},
                                             {BoolOp::kUnion, 17500.0},
                                             {BoolOp::kDifference, 7500.0},
                                             {BoolOp::kXor, 15000.0}};
  for (const double d : {1e10, 1e11, 1e12})
    for (const auto& [op, want] : cases) {
      const PolygonSet got =
          seq::martinez_clip(translated(a, d), translated(b, d), op);
      EXPECT_TRUE(test::areas_match(area_at_origin(got, d), want, kRelTol))
          << "offset " << d << " op " << geom::to_string(op) << ": "
          << got.num_contours() << " contours, area "
          << area_at_origin(got, d);
    }
}

TEST(LargeMagnitude, SlabClipKeepsEverySlab) {
  const auto pair = data::synthetic_pair(1, 200);
  const double want = geom::signed_area(
      seq::vatti_clip(pair.subject, pair.clip, BoolOp::kIntersection));
  par::ThreadPool pool(4);
  for (const double d : {1e10, 1e11})
    for (const unsigned slabs : {2u, 8u}) {
      mt::Alg2Options o;
      o.slabs = slabs;
      mt::Alg2Stats stats;
      const PolygonSet got =
          mt::slab_clip(translated(pair.subject, d), translated(pair.clip, d),
                        BoolOp::kIntersection, pool, o, &stats);
      EXPECT_EQ(stats.degraded_slabs(), 0);
      EXPECT_TRUE(test::areas_match(area_at_origin(got, d), want, kRelTol))
          << "offset " << d << " slabs " << slabs << ": "
          << got.num_contours() << " contours, area "
          << area_at_origin(got, d) << " want " << want;
    }
}

// Large enough that kAuto picks the slab engine on a 4-thread pool.
TEST(LargeMagnitude, AutoUnionOfLargePair) {
  const auto pair = data::synthetic_pair(7, 12000);
  const double want = geom::signed_area(
      seq::vatti_clip(pair.subject, pair.clip, BoolOp::kUnion));
  par::ThreadPool pool(4);
  ClipOptions co;
  co.pool = &pool;
  const double d = 1e12;
  const PolygonSet a = translated(pair.subject, d);
  const PolygonSet b = translated(pair.clip, d);
  ASSERT_EQ(resolve_engine(Engine::kAuto, a.num_vertices() + b.num_vertices(),
                           pool.size()),
            Engine::kSlab);
  const PolygonSet got = clip(a, b, BoolOp::kUnion, co);
  EXPECT_TRUE(test::areas_match(area_at_origin(got, d), want, kRelTol))
      << got.num_contours() << " contours, area " << area_at_origin(got, d)
      << " want " << want;
}

}  // namespace
}  // namespace psclip
