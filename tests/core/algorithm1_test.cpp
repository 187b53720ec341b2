#include "core/algorithm1.hpp"

#include <gtest/gtest.h>

#include "geom/area_oracle.hpp"
#include "geom/point_in_polygon.hpp"
#include "param_print.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::core {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

PolygonSet square(double x0, double y0, double s) {
  return geom::make_polygon(
      {{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s}, {x0, y0 + s}});
}

TEST(Algorithm1, SquaresAllOps) {
  par::ThreadPool pool(4);
  const PolygonSet a = square(0, 0, 10), b = square(5, 5, 10);
  Alg1Stats st;
  EXPECT_NEAR(geom::signed_area(scanbeam_clip(a, b, BoolOp::kIntersection,
                                              pool, &st)),
              25.0, 1e-5);
  EXPECT_NEAR(
      geom::signed_area(scanbeam_clip(a, b, BoolOp::kUnion, pool)), 175.0,
      1e-5);
  EXPECT_NEAR(
      geom::signed_area(scanbeam_clip(a, b, BoolOp::kDifference, pool)),
      75.0, 1e-5);
  EXPECT_NEAR(geom::signed_area(scanbeam_clip(a, b, BoolOp::kXor, pool)),
              150.0, 1e-5);
  EXPECT_EQ(st.intersections, 2);
  EXPECT_EQ(st.edges, 8);
  EXPECT_GT(st.scanbeams, 0);
  EXPECT_GT(st.partial_polys, 0);
  EXPECT_GT(st.merge_phases, 0);
}

TEST(Algorithm1, HoleStructureMatchesSequential) {
  par::ThreadPool pool(4);
  const PolygonSet outer = square(0, 0, 10), inner = square(3, 3, 2);
  const PolygonSet r =
      scanbeam_clip(outer, inner, BoolOp::kDifference, pool);
  EXPECT_NEAR(geom::signed_area(r), 96.0, 1e-5);
  int holes = 0;
  for (const auto& c : r.contours)
    if (c.hole) ++holes;
  EXPECT_EQ(holes, 1);
  EXPECT_FALSE(geom::point_in_polygon({4, 4}, r));
  EXPECT_TRUE(geom::point_in_polygon({1, 1}, r));
}

struct A1Case {
  std::uint64_t seed;
  int n1, n2;
  bool sx;
  MergeStrategy merge;
  bool segtree;
};

void PrintTo(const A1Case& c, std::ostream* os) {
  test::print_param_bytes(c, os, &A1Case::seed, &A1Case::n1, &A1Case::n2,
                          &A1Case::sx, &A1Case::merge, &A1Case::segtree);
}

class Algorithm1Differential : public ::testing::TestWithParam<A1Case> {};

TEST_P(Algorithm1Differential, MatchesOracleAllOps) {
  par::ThreadPool pool(4);
  const A1Case c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1.5, -1, 8, false);
  Alg1Options opts;
  opts.merge = c.merge;
  opts.use_segment_tree = c.segtree;
  for (const BoolOp op : geom::kAllOps) {
    const double got =
        geom::signed_area(scanbeam_clip(a, b, op, pool, nullptr, opts));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want))
        << geom::to_string(op) << " got=" << got << " want=" << want;
  }
}

TEST_P(Algorithm1Differential, AgreesWithSequentialVatti) {
  par::ThreadPool pool(4);
  const A1Case c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 7 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 7 + 2, c.n2, -1, 2, 9, false);
  Alg1Options opts;
  opts.merge = c.merge;
  opts.use_segment_tree = c.segtree;
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet r1 = scanbeam_clip(a, b, op, pool, nullptr, opts);
    const PolygonSet r2 = seq::vatti_clip(a, b, op);
    EXPECT_TRUE(test::areas_match(geom::signed_area(r1),
                                  geom::signed_area(r2), 1e-5))
        << geom::to_string(op);
  }
}

std::vector<A1Case> make_cases() {
  std::vector<A1Case> cases;
  std::uint64_t seed = 500;
  for (int rep = 0; rep < 10; ++rep) {
    for (int n : {6, 14, 28, 52}) {
      A1Case c;
      c.seed = seed++;
      c.n1 = n;
      c.n2 = 4 + n / 2;
      c.sx = rep % 3 == 0;
      c.merge = rep % 2 ? MergeStrategy::kFlat : MergeStrategy::kTree;
      c.segtree = rep % 2 == 0;
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, Algorithm1Differential,
                         ::testing::ValuesIn(make_cases()));

TEST(Algorithm1, OutputSensitivityCounters) {
  par::ThreadPool pool(4);
  // Two long thin combs crossing: k grows with the tooth count while n
  // stays moderate; the stats must reflect both.
  Alg1Stats st;
  const PolygonSet a = test::random_polygon(900, 60, 0, 0, 10);
  const PolygonSet b = test::random_polygon(901, 60, 0.5, 0.5, 10);
  scanbeam_clip(a, b, BoolOp::kIntersection, pool, &st);
  EXPECT_EQ(st.edges, 120);
  EXPECT_GT(st.intersections, 0);
  EXPECT_GT(st.k_prime, 0);
  EXPECT_GE(st.scanbeams, 100);
  EXPECT_GE(st.t_beams, 0.0);
  EXPECT_GE(st.t_sort_partition, 0.0);
  EXPECT_GE(st.t_merge, 0.0);
}

TEST(Algorithm1, SingleThreadPoolWorks) {
  par::ThreadPool pool(1);
  const PolygonSet a = square(0, 0, 10), b = square(4, 4, 10);
  EXPECT_NEAR(
      geom::signed_area(scanbeam_clip(a, b, BoolOp::kIntersection, pool)),
      36.0, 1e-5);
}

TEST(Algorithm1, EmptyInputs) {
  par::ThreadPool pool(2);
  EXPECT_TRUE(
      scanbeam_clip({}, {}, BoolOp::kUnion, pool).empty());
  const PolygonSet a = square(0, 0, 3);
  EXPECT_NEAR(geom::signed_area(scanbeam_clip(a, {}, BoolOp::kUnion, pool)),
              9.0, 1e-5);
  EXPECT_TRUE(
      scanbeam_clip(a, {}, BoolOp::kIntersection, pool).empty());
}

}  // namespace
}  // namespace psclip::core
