// Byte-identity contract for the fused slab partition.
//
// slab_clip's healthy rung assembles each slab's Vatti bound table from
// globally prepared contour fragments — whole where a contour lies in the
// slab's band, cut to the band by the band builder where it straddles a
// cut — and slices the scanbeam schedule from one shared merged y-list.
// Its kRetrySafe rung trusts none of that shared state: it re-prepares
// every contour on fresh scratch and rebuilds the table and schedule. The
// two must produce the same contours in the same order with the same bits
// — not just the same area — on every corpus case, for both sweep
// kernels, at one slab and many. The multiset clipper's fused fragment
// concatenation carries the same contract against its copy-then-rederive
// retry path.
//
// The retry path is reached the way production reaches it, through a slab
// failure: test::ForceRetrySink fails every healthy attempt, so every slab
// runs kRetrySafe on fresh scratch.
//
// The corpus is the shared 216-case fuzz generator (tests/fuzz_cases.hpp);
// on top of it, handcrafted degeneracy cases exercise the geometry the
// band builder and the open-band sweep special-case: touching rectangle
// stacks, zero-height contours, contours spanning every slab, chains
// crossing a cut at one point, edges spanning several whole bands, cuts
// between 1-ULP neighbours and prepared boxes crossing a cut that the
// original box does not reach. Those also check three-way area agreement
// (slab_clip / vatti_clip / martinez_clip against the area oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "fuzz_cases.hpp"
#include "geom/area_oracle.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/multiset.hpp"
#include "mt/slab_index.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/band.hpp"
#include "seq/martinez.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using fuzz::FuzzCase;
using fuzz::Inputs;
using fuzz::make_inputs;
using geom::BoolOp;
using geom::PolygonSet;

void expect_identical(const PolygonSet& got, const PolygonSet& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_contours(), want.num_contours()) << what;
  for (std::size_t i = 0; i < got.contours.size(); ++i) {
    ASSERT_EQ(got.contours[i].pts.size(), want.contours[i].pts.size())
        << what << " contour " << i;
    EXPECT_EQ(got.contours[i].hole, want.contours[i].hole)
        << what << " contour " << i;
    for (std::size_t j = 0; j < got.contours[i].pts.size(); ++j) {
      ASSERT_EQ(got.contours[i][j].x, want.contours[i][j].x)
          << what << " contour " << i << " vertex " << j;
      ASSERT_EQ(got.contours[i][j].y, want.contours[i][j].y)
          << what << " contour " << i << " vertex " << j;
    }
  }
}

/// healthy == forced retry, bit for bit, at the given slab count and
/// kernel. One slab exercises the "whole input is one slab" degenerate
/// decomposition (one unbounded band, every contour copied whole, the
/// shared-schedule slice is the whole schedule); many slabs exercise the
/// band cuts.
void check_slab_identity(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                         par::ThreadPool& pool, unsigned slabs,
                         seq::SweepKernel kernel, const std::string& what) {
  mt::Alg2Options of;
  of.slabs = slabs;
  of.sweep_kernel = kernel;
  test::ForceRetrySink force_retry;
  mt::Alg2Options ob = of;
  ob.trace_sink = &force_retry;

  mt::Alg2Stats sf, sb;
  const PolygonSet rf = mt::slab_clip(a, b, op, pool, of, &sf);
  const PolygonSet rb = mt::slab_clip(a, b, op, pool, ob, &sb);
  expect_identical(rf, rb, what + " healthy-vs-retry");

  // The fused run must stay on the healthy rung and the forced run must
  // retry every slab — either falling elsewhere would make this vacuous.
  for (const auto& rep : sf.degradation)
    ASSERT_EQ(rep.rung, mt::Rung::kHealthy) << what << ": " << rep.message;
  ASSERT_TRUE(test::all_slabs_retried(sb)) << what;
}

/// The multiset counterpart: fused fragment concatenation (healthy) ==
/// materialized slab polygons through vatti_clip (forced retry).
void check_multiset_identity(const PolygonSet& a, const PolygonSet& b,
                             BoolOp op, par::ThreadPool& pool, unsigned slabs,
                             seq::SweepKernel kernel,
                             const std::string& what) {
  mt::MultisetOptions of;
  of.slabs = slabs;
  of.sweep_kernel = kernel;
  test::ForceRetrySink force_retry;
  mt::MultisetOptions om = of;
  om.trace_sink = &force_retry;

  mt::Alg2Stats sf, sm;
  const PolygonSet rf = mt::multiset_clip(a, b, op, pool, of, &sf);
  const PolygonSet rm = mt::multiset_clip(a, b, op, pool, om, &sm);
  expect_identical(rf, rm, what + " multiset fused-vs-materializing");
  for (const auto& rep : sf.degradation)
    ASSERT_EQ(rep.rung, mt::Rung::kHealthy) << what << ": " << rep.message;
  ASSERT_TRUE(test::all_slabs_retried(sm)) << what;
}

class FusedPartitionFuzz : public ::testing::TestWithParam<FuzzCase> {};

// The test name predates the removal of the indexed partition; the
// materializing reference is now the broadcast path of the forced retry.
// Both engines, at one slab and six.
TEST_P(FusedPartitionFuzz, FusedMatchesIndexedBitForBit) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);

  for (const seq::SweepKernel kernel :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference}) {
    const std::string kn =
        kernel == seq::SweepKernel::kTuned ? "tuned" : "reference";
    for (const unsigned slabs : {1u, 6u}) {
      const std::string what = kn + " slabs=" + std::to_string(slabs);
      check_slab_identity(in.a, in.b, c.op, pool, slabs, kernel, what);
      check_multiset_identity(in.a, in.b, c.op, pool, slabs, kernel, what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FusedPartitionFuzz,
                         ::testing::ValuesIn(fuzz::make_cases()));

// ---------------------------------------------------------------------------
// Boundary degeneracies
// ---------------------------------------------------------------------------

// A stack of touching rectangles: shared horizontal edges, shared
// ordinates, and slab cuts that land exactly midway between rows, where
// the perturbed rectangles' near-horizontal edges are cut.
TEST(FusedPartitionDegenerate, TouchingRectangleStack) {
  PolygonSet a, b;
  for (int i = 0; i < 8; ++i)
    a.add(geom::make_rect(0.0, i * 1.0, 10.0, (i + 1) * 1.0));
  b.add(geom::make_rect(-1.0, 0.5, 11.0, 7.5));
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    for (const unsigned slabs : {1u, 4u, 8u})
      check_slab_identity(a, b, op, pool, slabs, seq::SweepKernel::kTuned,
                          "rect-stack op=" + std::string(geom::to_string(op)) +
                              " slabs=" + std::to_string(slabs));
}

// Zero-height contours (all vertices on one ordinate) sitting among normal
// ones: preparation collapses them to nothing on every path; the fused
// fragment append must agree with the materializing prep about that.
TEST(FusedPartitionDegenerate, ZeroHeightContours) {
  PolygonSet a = data::polygon_field(301, 12, 40.0, 8);
  a.add({{0.0, 13.0}, {5.0, 13.0}, {9.0, 13.0}});   // zero-height triangle
  a.add({{20.0, 21.0}, {26.0, 21.0}, {23.0, 21.0}});
  PolygonSet b = data::polygon_field(302, 12, 40.0, 7);
  par::ThreadPool pool(4);
  for (const BoolOp op : {BoolOp::kUnion, BoolOp::kIntersection})
    for (const unsigned slabs : {1u, 4u, 8u})
      check_slab_identity(a, b, op, pool, slabs, seq::SweepKernel::kTuned,
                          "zero-height slabs=" + std::to_string(slabs));
}

// One contour spanning every slab (its bounds are cut in every band)
// against a field of small contours copied whole.
TEST(FusedPartitionDegenerate, ContourSpanningAllSlabs) {
  PolygonSet a = data::polygon_field(303, 16, 60.0, 9);
  a.add(geom::make_rect(-5.0, -5.0, 65.0, 65.0));  // spans everything
  PolygonSet b = data::polygon_field(304, 16, 60.0, 8);
  par::ThreadPool pool(4);
  for (const seq::SweepKernel kernel :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference})
    for (const unsigned slabs : {4u, 8u, 16u})
      check_slab_identity(a, b, BoolOp::kXor, pool, slabs, kernel,
                          "spanning slabs=" + std::to_string(slabs));
}

// ---------------------------------------------------------------------------
// Multiset fused fragment concatenation
// ---------------------------------------------------------------------------

TEST(FusedMultiset, FusedMatchesMaterializingBitForBit) {
  const PolygonSet a = data::polygon_field(601, 30, 100.0, 9);
  const PolygonSet b = data::polygon_field(602, 30, 100.0, 8);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps) {
    for (const seq::SweepKernel kernel :
         {seq::SweepKernel::kTuned, seq::SweepKernel::kReference})
      check_multiset_identity(a, b, op, pool, /*slabs=*/4, kernel,
                              std::string("op=") + geom::to_string(op));
  }
}

// Corpus lane for the multiset fused path: pair inputs are valid two-set
// inputs too (each "set" is whatever contours the generator produced).
class FusedMultisetFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FusedMultisetFuzz, FusedMatchesMaterializing) {
  const FuzzCase c = GetParam();
  SCOPED_TRACE("repro: " + c.repro());
  const Inputs in = make_inputs(c);
  static par::ThreadPool pool(4);
  check_multiset_identity(in.a, in.b, c.op, pool, /*slabs=*/4,
                          seq::SweepKernel::kTuned, "corpus slabs=4");
}

// A 36-case slice at a third slab count; the full 216 cases run both
// engines at 1 and 6 slabs in the FusedPartitionFuzz lane above.
INSTANTIATE_TEST_SUITE_P(CorpusSlice, FusedMultisetFuzz,
                         ::testing::ValuesIn([] {
                           auto all = fuzz::make_cases();
                           std::vector<FuzzCase> slice;
                           for (std::size_t i = 0; i < all.size(); i += 6)
                             slice.push_back(all[i]);
                           return slice;
                         }()));

// The output-sensitivity claim itself, in deterministic units: on a blob
// pair whose two contours straddle every slab, the band builder appends
// exactly the (prepared edge, band) pairs that meet — Σ over slabs of
// touched_edges equals Σ over prepared edges of the number of bands each
// edge meets, O(n + k') rather than the O(n·p) of rect-clipping every
// straddler in every slab.
TEST(FusedPartition, TouchedEdgesAreOutputSensitive) {
  // Two blobs of the same radius, 5 apart in x, so both span every slab.
  struct {
    PolygonSet subject, clip;
  } pair{data::random_blob(11, 600, 0.0, 0.0, 100.0),
         data::random_blob(12, 600, 5.0, 0.0, 100.0)};
  std::vector<double> ys;
  for (const PolygonSet* in : {&pair.subject, &pair.clip})
    for (const auto& c : in->contours)
      for (const auto& pt : c.pts) ys.push_back(pt.y);
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  par::ThreadPool pool(4);
  for (const unsigned slabs : {4u, 8u, 16u}) {
    // slab_clip's cuts: between event ordinates, outer bands open.
    const std::vector<double> cuts = mt::slab_bounds(ys, -kInf, kInf, slabs);
    std::int64_t want = 0, edges = 0;
    for (const PolygonSet* in : {&pair.subject, &pair.clip}) {
      for (const auto& c : in->contours) {
        seq::PreparedContour pc;
        ASSERT_TRUE(seq::prepare_contour(c, in == &pair.clip, pc));
        // Every contour straddles every cut.
        ASSERT_LT(pc.box.ymin, cuts[1]);
        ASSERT_GT(pc.box.ymax, cuts[cuts.size() - 2]);
        edges += static_cast<std::int64_t>(pc.bt.edges.size());
        for (const seq::BoundEdge& e : pc.bt.edges)
          for (std::size_t t = 0; t + 1 < cuts.size(); ++t)
            want += e.bot.y < cuts[t + 1] && e.top.y > cuts[t] ? 1 : 0;
      }
    }
    mt::Alg2Options o;
    o.slabs = slabs;
    mt::Alg2Stats st;
    (void)mt::slab_clip(pair.subject, pair.clip, BoolOp::kUnion, pool, o, &st);
    ASSERT_EQ(st.slabs.size(), cuts.size() - 1);
    ASSERT_EQ(st.degraded_slabs(), 0);
    std::int64_t touched = 0, build = 0;
    for (const auto& s : st.slabs) {
      touched += s.touched_edges;
      build += s.bound_build_ns;
    }
    EXPECT_EQ(touched, want) << "slabs=" << slabs;
    // Each cut adds one piece per edge crossing it: far below n·p.
    EXPECT_LT(touched, 2 * edges) << "slabs=" << slabs;
    EXPECT_GT(build, 0) << "slabs=" << slabs;
  }
}

// ---------------------------------------------------------------------------
// Band degeneracies: healthy == forced retry on both kernels, and three-way
// area agreement.
// ---------------------------------------------------------------------------

void check_band_case(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                     par::ThreadPool& pool, unsigned slabs,
                     const std::string& what) {
  const double oracle = geom::boolean_area_oracle(a, b, op);
  const double vatti = geom::signed_area(seq::vatti_clip(a, b, op));
  const double martinez = geom::signed_area(seq::martinez_clip(a, b, op));
  EXPECT_TRUE(test::areas_match(vatti, oracle, 1e-5))
      << what << " vatti=" << vatti << " oracle=" << oracle;
  EXPECT_TRUE(test::areas_match(martinez, oracle, 1e-5))
      << what << " martinez=" << martinez << " oracle=" << oracle;
  for (const seq::SweepKernel kernel :
       {seq::SweepKernel::kTuned, seq::SweepKernel::kReference}) {
    const std::string kw =
        what + (kernel == seq::SweepKernel::kTuned ? " tuned" : " reference");
    check_slab_identity(a, b, op, pool, slabs, kernel, kw);
    mt::Alg2Options o;
    o.slabs = slabs;
    o.sweep_kernel = kernel;
    const double got =
        geom::signed_area(mt::slab_clip(a, b, op, pool, o, nullptr));
    EXPECT_TRUE(test::areas_match(got, oracle, 1e-5))
        << kw << " slab=" << got << " oracle=" << oracle;
  }
}

// Two chains crossing a cut at the same point: the bowtie's edges cross at
// (1, 1), and with event ordinates {0, 2} the two-slab cut lands exactly
// on y = 1, so both cut vertices coincide.
TEST(BandDegenerate, TwoChainsCrossACutAtTheSameX) {
  const PolygonSet a = geom::make_polygon({{0, 0}, {2, 2}, {2, 0}, {0, 2}});
  const PolygonSet b =
      geom::make_polygon({{0.3, 0}, {1.7, 0}, {1.5, 2}, {0.5, 2}});
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    for (const unsigned slabs : {2u, 4u})
      check_band_case(a, b, op, pool, slabs,
                      std::string("bowtie op=") + geom::to_string(op) +
                          " slabs=" + std::to_string(slabs));
}

// A wide triangle whose two long edges span many whole bands (cut at both
// ends in every band but the outer ones) against a field of small contours
// that supplies the event ordinates.
TEST(BandDegenerate, EdgeSpansSeveralWholeBands) {
  const PolygonSet a =
      geom::make_polygon({{10, 0}, {50, 100}, {90, 0.5}});
  const PolygonSet b = data::polygon_field(305, 40, 100.0, 8);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    for (const unsigned slabs : {8u, 16u})
      check_band_case(a, b, op, pool, slabs,
                      std::string("spanning op=") + geom::to_string(op) +
                          " slabs=" + std::to_string(slabs));
}

// The corpus case whose cut once rounded onto a vertex between 1-ULP
// neighbours (the cut-placement fix in mt::slab_bounds).
TEST(BandDegenerate, CutBetweenOneUlpNeighbours) {
  const fuzz::FuzzCase c{424260, fuzz::Shape::kFieldVsBlob,
                         fuzz::Degenerate::kNone, BoolOp::kIntersection};
  const Inputs in = make_inputs(c);
  par::ThreadPool pool(4);
  check_band_case(in.a, in.b, c.op, pool, 6, c.repro());
}

// Perturbation nudges the rectangle's top vertices up by up to 17 nudge
// quanta (1e-9 each here), past the cut at 1 + 5e-10 that its original box
// (top at 1) never reaches: the slab above must still receive the
// contour's prepared edges.
TEST(BandDegenerate, PreparedBoxCrossesACutTheOriginalDoesNot) {
  const PolygonSet a = geom::make_polygon({{0, 0}, {10, 0}, {10, 1}, {0, 1}});
  const PolygonSet b =
      geom::make_polygon({{5, 1 + 1e-9}, {9, 3}, {1, 3}});
  const double cut = 0.5 * (1.0 + (1.0 + 1e-9));
  seq::PreparedContour pc;
  ASSERT_TRUE(seq::prepare_contour(a.contours[0], false, pc));
  ASSERT_LT(geom::bounds(a.contours[0]).ymax, cut);
  ASSERT_GT(pc.box.ymax, cut);
  par::ThreadPool pool(4);
  for (const BoolOp op : geom::kAllOps)
    check_band_case(a, b, op, pool, 2,
                    std::string("nudged op=") + geom::to_string(op));
}

}  // namespace
}  // namespace psclip
