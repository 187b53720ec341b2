// Property test for the merge-phase weld: random beam tilings of random
// regions, welded by both strategies, must reproduce the tiled area
// exactly and agree with the sequential clipper.

#include <gtest/gtest.h>

#include <random>

#include "core/beam_sweep.hpp"
#include "core/merge.hpp"
#include "core/scanbeam.hpp"
#include "geom/area_oracle.hpp"
#include "geom/perturb.hpp"
#include "param_print.hpp"
#include "test_support.hpp"

namespace psclip::core {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

struct WCase {
  std::uint64_t seed;
  int n1, n2;
  bool sx;
  int op_index;
};

void PrintTo(const WCase& c, std::ostream* os) {
  test::print_param_bytes(c, os, &WCase::seed, &WCase::n1, &WCase::n2,
                          &WCase::sx, &WCase::op_index);
}

class WeldProperty : public ::testing::TestWithParam<WCase> {};

TEST_P(WeldProperty, WeldPreservesTiledAreaAndRegion) {
  const WCase c = GetParam();
  const BoolOp op = geom::kAllOps[c.op_index];
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1, -1, 8, false);

  PolygonSet s = geom::cleaned(a), cl = geom::cleaned(b);
  geom::remove_horizontals(s);
  geom::remove_horizontals(cl);
  const seq::BoundTable bt = seq::build_bounds(s, cl);
  par::ThreadPool pool(2);
  const auto part = partition_scanbeams(pool, bt);

  WeldArena flat, tree;
  double tiled = 0.0;
  for (std::size_t beam = 0; beam < part.num_beams(); ++beam) {
    const auto lo = static_cast<std::size_t>(part.offsets[beam]);
    const auto hi = static_cast<std::size_t>(part.offsets[beam + 1]);
    const BeamResult br = process_beam(
        bt, std::span<const std::int32_t>(part.edge_ids).subspan(lo, hi - lo),
        part.ys[beam], part.ys[beam + 1], op);
    for (const auto& r : br.rings) {
      tiled += geom::signed_area(r);
      flat.add_ring(r);
      tree.add_ring(r);
    }
  }
  flat.weld_flat(pool, part.ys);
  tree.weld_tree(pool, part.ys);

  const double want = geom::boolean_area_oracle(a, b, op);
  EXPECT_TRUE(test::areas_match(tiled, want)) << "tiling broken";
  // Raw extraction (virtual vertices kept) must conserve area exactly.
  EXPECT_TRUE(test::areas_match(
      geom::signed_area(flat.extract(/*pack_virtuals=*/false)), tiled, 1e-9));
  // Packed extraction from both strategies.
  const double fa = geom::signed_area(flat.extract());
  const double ta = geom::signed_area(tree.extract());
  EXPECT_TRUE(test::areas_match(fa, want)) << "flat weld fa=" << fa;
  EXPECT_TRUE(test::areas_match(ta, want)) << "tree weld ta=" << ta;
  // Nothing left unwelded.
  EXPECT_TRUE(flat.debug_unwelded().empty());
  EXPECT_TRUE(tree.debug_unwelded().empty());
}

std::vector<WCase> make_cases() {
  std::vector<WCase> cases;
  std::uint64_t seed = 42000;
  for (int rep = 0; rep < 16; ++rep)
    cases.push_back(
        {seed++, 6 + rep * 3, 4 + rep * 2, rep % 4 == 0, rep % 4});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, WeldProperty,
                         ::testing::ValuesIn(make_cases()));

}  // namespace
}  // namespace psclip::core
