#include "seq/martinez.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/area_oracle.hpp"
#include "param_print.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::seq {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

PolygonSet square(double x0, double y0, double s) {
  return geom::make_polygon(
      {{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s}, {x0, y0 + s}});
}

TEST(Martinez, TiltedSquaresAllOps) {
  const PolygonSet a = geom::make_polygon({{0, 0}, {10, 1}, {9, 10}, {1, 9}});
  const PolygonSet b =
      geom::make_polygon({{5, 4}, {15, 5}, {14, 14}, {4, 13}});
  for (const BoolOp op : geom::kAllOps) {
    const double got = geom::signed_area(martinez_clip(a, b, op));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want)) << geom::to_string(op);
  }
}

TEST(Martinez, AxisAlignedSquares) {
  // Vertical edges are perturbed internally (the x-sweep analogue of the
  // scanline clippers' horizontal-edge preprocessing).
  const PolygonSet a = square(0, 0, 10), b = square(5, 5, 10);
  EXPECT_NEAR(geom::signed_area(martinez_clip(a, b, BoolOp::kIntersection)),
              25.0, 1e-3);
  EXPECT_NEAR(geom::signed_area(martinez_clip(a, b, BoolOp::kUnion)), 175.0,
              1e-3);
}

TEST(Martinez, DisjointAndContained) {
  const PolygonSet a = square(0, 0, 4);
  EXPECT_TRUE(martinez_clip(a, square(10, 10, 2), BoolOp::kIntersection)
                  .empty());
  EXPECT_NEAR(geom::signed_area(
                  martinez_clip(a, square(1, 1, 2), BoolOp::kDifference)),
              12.0, 1e-3);
}

TEST(Martinez, HoleOrientation) {
  const PolygonSet r =
      martinez_clip(square(0, 0, 10), square(3, 3, 2), BoolOp::kDifference);
  int holes = 0;
  for (const auto& c : r.contours)
    if (c.hole) {
      ++holes;
      EXPECT_LT(geom::signed_area(c), 0.0);
    }
  EXPECT_EQ(holes, 1);
}

TEST(Martinez, EmptyInputs) {
  const PolygonSet a = square(0, 0, 3);
  EXPECT_TRUE(martinez_clip({}, {}, BoolOp::kUnion).empty());
  EXPECT_NEAR(geom::signed_area(martinez_clip(a, {}, BoolOp::kUnion)), 9.0,
              1e-3);
  EXPECT_TRUE(martinez_clip(a, {}, BoolOp::kIntersection).empty());
}

struct MCase {
  std::uint64_t seed;
  int n1, n2;
  bool sx1, sx2;
};

void PrintTo(const MCase& c, std::ostream* os) {
  test::print_param_bytes(c, os, &MCase::seed, &MCase::n1, &MCase::n2,
                          &MCase::sx1, &MCase::sx2);
}

class MartinezDifferential : public ::testing::TestWithParam<MCase> {};

TEST_P(MartinezDifferential, MatchesOracle) {
  const MCase c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx1);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1.5, -1, 8, c.sx2);
  for (const BoolOp op : geom::kAllOps) {
    const double got = geom::signed_area(martinez_clip(a, b, op));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want))
        << geom::to_string(op) << " got=" << got << " want=" << want;
  }
}

TEST_P(MartinezDifferential, AgreesWithVatti) {
  // Two completely independent algorithms (x-sweep edge selection vs
  // y-scanline AET) must produce the same region.
  const MCase c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 11 + 1, c.n1, 0, 0, 10, c.sx1);
  const PolygonSet b =
      test::random_polygon(c.seed * 11 + 2, c.n2, -1, 2, 9, c.sx2);
  for (const BoolOp op : geom::kAllOps) {
    const double m = geom::signed_area(martinez_clip(a, b, op));
    const double v = geom::signed_area(vatti_clip(a, b, op));
    EXPECT_TRUE(test::areas_match(m, v, 1e-5))
        << geom::to_string(op) << " martinez=" << m << " vatti=" << v;
  }
}

std::vector<MCase> make_cases() {
  std::vector<MCase> cases;
  std::uint64_t seed = 7000;
  for (int rep = 0; rep < 15; ++rep) {
    MCase c;
    c.seed = seed++;
    c.n1 = 4 + rep * 4;
    c.n2 = 3 + rep * 3;
    c.sx1 = rep % 3 == 0;
    c.sx2 = rep % 5 == 0;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, MartinezDifferential,
                         ::testing::ValuesIn(make_cases()));

TEST(Martinez, PipAgreement) {
  const PolygonSet a = test::random_polygon(888, 22, 0, 0, 10, true);
  const PolygonSet b = test::random_polygon(889, 18, 1, 1, 8, false);
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet r = martinez_clip(a, b, op);
    EXPECT_GT(test::pip_agreement(a, b, op, r, 3000, 555), 0.999)
        << geom::to_string(op);
  }
}

}  // namespace
}  // namespace psclip::seq
