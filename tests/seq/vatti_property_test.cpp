// Property-based differential suite for the Vatti clipper: hundreds of
// seeded random cases checked against the independent trapezoid-sweep
// area oracle, plus the boolean-algebra identities that must hold for any
// correct clipper.

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

struct Case {
  std::uint64_t seed;
  int n1, n2;
  bool sx1, sx2;
};

void PrintTo(const Case& c, std::ostream* os) {
  test::print_param_bytes(c, os, &Case::seed, &Case::n1, &Case::n2,
                          &Case::sx1, &Case::sx2);
}

class VattiDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(VattiDifferential, AreaMatchesOracleAllOps) {
  const Case c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx1);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1.5, -1, 8, c.sx2);
  for (const BoolOp op : geom::kAllOps) {
    const double got = geom::signed_area(vatti_clip(a, b, op));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want))
        << geom::to_string(op) << " got=" << got << " want=" << want;
  }
}

TEST_P(VattiDifferential, BooleanAlgebraIdentities) {
  const Case c = GetParam();
  const PolygonSet a =
      test::random_polygon(c.seed * 3 + 1, c.n1, 0, 0, 10, c.sx1);
  const PolygonSet b =
      test::random_polygon(c.seed * 3 + 2, c.n2, -1, 2, 8, c.sx2);
  const double ai = geom::even_odd_area(a);
  const double bi = geom::even_odd_area(b);
  const double i = geom::signed_area(vatti_clip(a, b, BoolOp::kIntersection));
  const double u = geom::signed_area(vatti_clip(a, b, BoolOp::kUnion));
  const double dab = geom::signed_area(vatti_clip(a, b, BoolOp::kDifference));
  const double dba = geom::signed_area(vatti_clip(b, a, BoolOp::kDifference));
  const double x = geom::signed_area(vatti_clip(a, b, BoolOp::kXor));
  // Inclusion–exclusion and the partition identities.
  EXPECT_TRUE(test::areas_match(i + u, ai + bi, 1e-5));
  EXPECT_TRUE(test::areas_match(dab, ai - i, 1e-5));
  EXPECT_TRUE(test::areas_match(dba, bi - i, 1e-5));
  EXPECT_TRUE(test::areas_match(x, dab + dba, 1e-5));
  EXPECT_TRUE(test::areas_match(u, i + x, 1e-5));
  // Commutativity of the symmetric operators.
  EXPECT_TRUE(test::areas_match(
      geom::signed_area(vatti_clip(b, a, BoolOp::kIntersection)), i, 1e-5));
  EXPECT_TRUE(test::areas_match(
      geom::signed_area(vatti_clip(b, a, BoolOp::kUnion)), u, 1e-5));
}

TEST_P(VattiDifferential, ResultSurvivesReclipping) {
  const Case c = GetParam();
  if (c.n1 > 30) GTEST_SKIP() << "re-clipping checked on the smaller cases";
  const PolygonSet a =
      test::random_polygon(c.seed * 5 + 1, c.n1, 0, 0, 10, c.sx1);
  const PolygonSet b =
      test::random_polygon(c.seed * 5 + 2, c.n2, 1, 1, 8, c.sx2);
  const PolygonSet r = vatti_clip(a, b, BoolOp::kIntersection);
  // Clipping the (already simple) result against a strictly enclosing box
  // must not change its region.
  const geom::BBox bb = geom::bounds(r);
  if (bb.empty()) GTEST_SKIP() << "empty intersection";
  PolygonSet box;
  box.contours.push_back(geom::make_rect(bb.xmin - 1, bb.ymin - 1,
                                         bb.xmax + 1, bb.ymax + 1));
  const double area = geom::signed_area(r);
  const double again =
      geom::signed_area(vatti_clip(r, box, BoolOp::kIntersection));
  EXPECT_TRUE(test::areas_match(again, area, 1e-4));
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  std::uint64_t seed = 1;
  for (int rep = 0; rep < 25; ++rep) {
    for (int n : {4, 8, 16, 32, 64}) {
      Case c;
      c.seed = seed++;
      c.n1 = n + rep % 3;
      c.n2 = 3 + (n / 2) + rep % 5;
      c.sx1 = rep % 3 == 0;
      c.sx2 = rep % 5 == 0;
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, VattiDifferential,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace psclip::seq
