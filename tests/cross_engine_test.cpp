// Cross-engine property suite: every clipping engine in the library —
// two independent sequential algorithms and both parallel algorithms —
// must produce the same region for the same input, across sizes, shapes
// and operators. This is the strongest single invariant the repository
// checks: a bug in any one sweep shows up as a disagreement here.

#include <gtest/gtest.h>

#include "core/algorithm1.hpp"
#include "data/synthetic.hpp"
#include "geom/area_oracle.hpp"
#include "mt/algorithm2.hpp"
#include "mt/multiset.hpp"
#include "param_print.hpp"
#include "seq/martinez.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

struct XCase {
  std::uint64_t seed;
  int edges;
  bool blob;  // smooth blob pair vs jagged star pair
};

void PrintTo(const XCase& c, std::ostream* os) {
  test::print_param_bytes(c, os, &XCase::seed, &XCase::edges, &XCase::blob);
}

class CrossEngine : public ::testing::TestWithParam<XCase> {};

TEST_P(CrossEngine, AllEnginesAgreeWithOracle) {
  const XCase c = GetParam();
  PolygonSet a, b;
  if (c.blob) {
    const auto pair = data::synthetic_pair(c.seed, c.edges);
    a = pair.subject;
    b = pair.clip;
  } else {
    a = test::random_polygon(c.seed * 2 + 1, c.edges, 0, 0, 10,
                             c.seed % 3 == 0);
    b = test::random_polygon(c.seed * 2 + 2, (c.edges * 3) / 4, 1, -1, 8,
                             false);
  }
  par::ThreadPool pool(3);
  for (const BoolOp op : geom::kAllOps) {
    const double want = geom::boolean_area_oracle(a, b, op);
    const double vat = geom::signed_area(seq::vatti_clip(a, b, op));
    const double mar = geom::signed_area(seq::martinez_clip(a, b, op));
    const double a1 =
        geom::signed_area(core::scanbeam_clip(a, b, op, pool));
    mt::Alg2Options o;
    o.slabs = 3;
    const double a2 = geom::signed_area(mt::slab_clip(a, b, op, pool, o));
    EXPECT_TRUE(test::areas_match(vat, want, 1e-5))
        << "vatti " << geom::to_string(op) << " " << vat << " vs " << want;
    EXPECT_TRUE(test::areas_match(mar, want, 1e-5))
        << "martinez " << geom::to_string(op) << " " << mar << " vs "
        << want;
    EXPECT_TRUE(test::areas_match(a1, want, 1e-5))
        << "algorithm1 " << geom::to_string(op) << " " << a1 << " vs "
        << want;
    EXPECT_TRUE(test::areas_match(a2, want, 1e-5))
        << "algorithm2 " << geom::to_string(op) << " " << a2 << " vs "
        << want;
  }
}

std::vector<XCase> make_cases() {
  std::vector<XCase> cases;
  std::uint64_t seed = 77000;
  for (int rep = 0; rep < 8; ++rep) {
    cases.push_back({seed++, 10 + rep * 8, false});
    cases.push_back({seed++, 40 + rep * 30, true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CrossEngine,
                         ::testing::ValuesIn(make_cases()));

TEST(CrossEngine, MultisetAgreesWithSequentialOnLayers) {
  par::ThreadPool pool(3);
  const PolygonSet a = data::polygon_field(501, 36, 80.0, 9);
  const PolygonSet b = data::polygon_field(502, 36, 80.0, 8);
  for (const BoolOp op : geom::kAllOps) {
    const double seq_area = geom::signed_area(seq::vatti_clip(a, b, op));
    mt::MultisetOptions o;
    o.slabs = 3;
    const double par_area =
        geom::signed_area(mt::multiset_clip(a, b, op, pool, o));
    EXPECT_TRUE(test::areas_match(par_area, seq_area, 1e-5))
        << geom::to_string(op);
  }
}

}  // namespace
}  // namespace psclip
