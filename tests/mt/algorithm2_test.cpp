#include "mt/algorithm2.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "fuzz_cases.hpp"
#include "geom/area_oracle.hpp"
#include "seq/vatti.hpp"
#include "test_support.hpp"

namespace psclip::mt {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

PolygonSet square(double x0, double y0, double s) {
  return geom::make_polygon(
      {{x0, y0}, {x0 + s, y0}, {x0 + s, y0 + s}, {x0, y0 + s}});
}

TEST(Algorithm2, SquaresAllOpsAllSlabCounts) {
  par::ThreadPool pool(4);
  const PolygonSet a = square(0, 0, 10), b = square(5, 5, 10);
  for (unsigned slabs : {1u, 2u, 3u, 5u, 8u}) {
    Alg2Options o;
    o.slabs = slabs;
    for (const BoolOp op : geom::kAllOps) {
      const double got = geom::signed_area(slab_clip(a, b, op, pool, o));
      const double want = geom::boolean_area_oracle(a, b, op);
      EXPECT_TRUE(test::areas_match(got, want, 1e-5))
          << geom::to_string(op) << " slabs=" << slabs << " got=" << got
          << " want=" << want;
    }
  }
}

struct A2Case {
  std::uint64_t seed;
  int n1, n2;
  unsigned slabs;
  bool sx;
  unsigned threads;  ///< pool size: the output must not depend on it
};

class Algorithm2Differential : public ::testing::TestWithParam<A2Case> {};

TEST_P(Algorithm2Differential, MatchesOracle) {
  const A2Case c = GetParam();
  par::ThreadPool pool(c.threads);
  const PolygonSet a =
      test::random_polygon(c.seed * 2 + 1, c.n1, 0, 0, 10, c.sx);
  const PolygonSet b =
      test::random_polygon(c.seed * 2 + 2, c.n2, 1, -1, 8, false);
  Alg2Options o;
  o.slabs = c.slabs;
  for (const BoolOp op : geom::kAllOps) {
    Alg2Stats st;
    const double got = geom::signed_area(slab_clip(a, b, op, pool, o, &st));
    const double want = geom::boolean_area_oracle(a, b, op);
    EXPECT_TRUE(test::areas_match(got, want, 1e-5))
        << geom::to_string(op) << " slabs=" << c.slabs
        << " threads=" << c.threads << " got=" << got << " want=" << want;
  }
}

std::vector<A2Case> make_cases() {
  std::vector<A2Case> cases;
  std::uint64_t seed = 3000;
  const unsigned threads[] = {4, 2, 1};
  for (int rep = 0; rep < 12; ++rep) {
    A2Case c{};  // zeroed padding: gtest prints the bytes in the test name
    c.seed = seed++;
    c.n1 = 8 + rep * 4;
    c.n2 = 6 + rep * 3;
    c.slabs = 1 + static_cast<unsigned>(rep % 7);
    // Self-intersecting subjects too: the straddlers' Greiner–Hormann
    // rectangle clip handles them, because every slab cut lies strictly
    // between vertex ordinates (no vertex on the clip boundary).
    c.sx = rep % 4 == 0;
    c.threads = threads[rep % 3];
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, Algorithm2Differential,
                         ::testing::ValuesIn(make_cases()));

TEST(Algorithm2, OversubscribeSweepMatchesSequentialVatti) {
  // Over-partitioning (c slabs per pool thread, stolen by idle workers)
  // changes the slab count and the scheduling, never the clipped region:
  // every setting must reproduce the sequential Vatti reference.
  par::ThreadPool pool(4);
  const PolygonSet a = test::random_polygon(911, 40, 0, 0, 10);
  const PolygonSet b = test::random_polygon(912, 34, 1, -1, 9);
  for (unsigned c : {1u, 2u, 4u, 8u}) {
    Alg2Options o;
    o.slabs = c * pool.size();
    for (const BoolOp op : geom::kAllOps) {
      const double want = geom::signed_area(seq::vatti_clip(a, b, op));
      Alg2Stats st;
      const double got =
          geom::signed_area(slab_clip(a, b, op, pool, o, &st));
      EXPECT_TRUE(test::areas_match(got, want, 1e-5))
          << geom::to_string(op) << " slabs=" << o.slabs << " got=" << got
          << " want=" << want;
      EXPECT_LE(st.slabs.size(), static_cast<std::size_t>(c) * pool.size());
      EXPECT_EQ(st.workers.size(), pool.size() + 1u);
      std::uint64_t jobs = 0;
      for (const auto& w : st.workers) jobs += w.slab_jobs;
      EXPECT_EQ(jobs, st.slabs.size());
    }
  }
  // slabs = 0 derives four slabs per pool thread.
  Alg2Options dflt, four;
  four.slabs = 4 * pool.size();
  Alg2Stats sd, s4;
  const PolygonSet rd = slab_clip(a, b, BoolOp::kUnion, pool, dflt, &sd);
  const PolygonSet r4 = slab_clip(a, b, BoolOp::kUnion, pool, four, &s4);
  EXPECT_EQ(sd.slabs.size(), s4.slabs.size());
  EXPECT_EQ(fuzz::canonical_vertices(rd), fuzz::canonical_vertices(r4));
}

TEST(Algorithm2, OversubscribedOutputIsScheduleInvariant) {
  // Same decomposition on 4 workers (stealing) and on 1 worker (serial):
  // the outputs must match contour for contour, coordinate for coordinate.
  par::ThreadPool pool4(4), pool1(1);
  const PolygonSet a = test::random_polygon(921, 48, 0, 0, 10);
  const PolygonSet b = test::random_polygon(922, 40, 1, 0, 9);
  Alg2Options o;
  o.slabs = 16;  // fixed slab count => identical slab boundaries
  for (const BoolOp op : geom::kAllOps) {
    const PolygonSet out4 = slab_clip(a, b, op, pool4, o);
    const PolygonSet out1 = slab_clip(a, b, op, pool1, o);
    ASSERT_EQ(out4.num_contours(), out1.num_contours()) << geom::to_string(op);
    for (std::size_t i = 0; i < out4.contours.size(); ++i) {
      const auto& c4 = out4.contours[i];
      const auto& c1 = out1.contours[i];
      ASSERT_EQ(c4.pts.size(), c1.pts.size()) << geom::to_string(op);
      EXPECT_EQ(c4.hole, c1.hole);
      for (std::size_t j = 0; j < c4.pts.size(); ++j) {
        EXPECT_EQ(c4.pts[j].x, c1.pts[j].x);
        EXPECT_EQ(c4.pts[j].y, c1.pts[j].y);
      }
    }
  }
}

TEST(Algorithm2, StatsPhasesAndLoads) {
  par::ThreadPool pool(4);
  const PolygonSet a = test::random_polygon(71, 60, 0, 0, 10);
  const PolygonSet b = test::random_polygon(72, 50, 1, 0, 9);
  Alg2Options o;
  o.slabs = 4;
  Alg2Stats st;
  slab_clip(a, b, BoolOp::kIntersection, pool, o, &st);
  EXPECT_EQ(st.slabs.size(), 4u);
  for (const auto& s : st.slabs) {
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.input_edges, 0);
  }
  EXPECT_GE(st.phases.partition, 0.0);
  EXPECT_GE(st.phases.clip, 0.0);
  EXPECT_GE(st.phases.merge, 0.0);
  EXPECT_GT(st.phases.total(), 0.0);
  EXPECT_GE(st.load_imbalance(), 1.0);
  EXPECT_GT(st.output_contours, 0);
  // Fault isolation is always on; a clean run records one healthy
  // degradation report per slab and nothing else.
  ASSERT_EQ(st.degradation.size(), st.slabs.size());
  for (const auto& d : st.degradation) {
    EXPECT_EQ(d.rung, Rung::kHealthy);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_TRUE(d.message.empty());
  }
  EXPECT_EQ(st.degraded_slabs(), 0);
  EXPECT_EQ(st.worst_rung(), Rung::kHealthy);
}

TEST(Algorithm2, SingleSlabEqualsSequential) {
  par::ThreadPool pool(2);
  const PolygonSet a = test::random_polygon(81, 24, 0, 0, 10);
  const PolygonSet b = test::random_polygon(82, 20, 2, 1, 8);
  Alg2Options o;
  o.slabs = 1;
  const double got = geom::signed_area(
      slab_clip(a, b, BoolOp::kDifference, pool, o));
  const double want =
      geom::boolean_area_oracle(a, b, BoolOp::kDifference);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5));
}

TEST(Algorithm2, MoreSlabsThanEvents) {
  par::ThreadPool pool(2);
  const PolygonSet a = square(0, 0, 2), b = square(1, 1, 2);
  Alg2Options o;
  o.slabs = 64;  // far more slabs than distinct ordinates
  const double got =
      geom::signed_area(slab_clip(a, b, BoolOp::kIntersection, pool, o));
  EXPECT_TRUE(test::areas_match(got, 1.0, 1e-4));
}

TEST(Algorithm2, EmptyInputs) {
  par::ThreadPool pool(2);
  EXPECT_TRUE(slab_clip({}, {}, BoolOp::kUnion, pool).empty());
  const PolygonSet a = square(0, 0, 4);
  EXPECT_NEAR(geom::signed_area(slab_clip(a, {}, BoolOp::kUnion, pool)),
              16.0, 1e-4);
}

// An Alg2Stats reused across calls must describe the latest call only: an
// empty request leaves no slabs, no workers and no partial report behind.
TEST(Algorithm2, EmptyInputResetsReusedStats) {
  par::ThreadPool pool(2);
  Alg2Options o;
  o.slabs = 4;
  Alg2Stats st;
  slab_clip(square(0, 0, 10), square(5, 5, 10), BoolOp::kIntersection, pool,
            o, &st);
  ASSERT_FALSE(st.slabs.empty());
  ASSERT_FALSE(st.workers.empty());
  st.partial.partial = true;  // as a governed partial run would leave it
  EXPECT_TRUE(slab_clip({}, {}, BoolOp::kUnion, pool, o, &st).empty());
  EXPECT_TRUE(st.slabs.empty());
  EXPECT_TRUE(st.degradation.empty());
  EXPECT_TRUE(st.workers.empty());
  EXPECT_FALSE(st.partial.partial);
}

// Regression: a slab cut used to round onto a vertex when two ordinates are
// one ULP apart (this blob has vertices at y = 10 and 10.000000000000002),
// and Greiner–Hormann then clipped a straddler whose vertex lies on the
// slab rectangle: area 5.05 instead of 9.52 at 6 slabs.
TEST(Algorithm2, CutBetweenOneUlpNeighboursMatchesOracle) {
  const fuzz::FuzzCase c{424260, fuzz::Shape::kFieldVsBlob,
                         fuzz::Degenerate::kNone, BoolOp::kIntersection};
  const fuzz::Inputs in = fuzz::make_inputs(c);
  par::ThreadPool pool(4);
  Alg2Options o;
  o.slabs = 6;
  Alg2Stats st;
  const double got =
      geom::signed_area(slab_clip(in.a, in.b, c.op, pool, o, &st));
  const double want = geom::boolean_area_oracle(in.a, in.b, c.op);
  EXPECT_TRUE(test::areas_match(got, want, 1e-5))
      << c.repro() << " got=" << got << " want=" << want;
  EXPECT_EQ(st.degraded_slabs(), 0);
}

// Regression: the rung span used to open outside the attempt's guard, after
// the slab was already marked done, so a sink throwing there lost the slab's
// output without an error. The throw must fail that one attempt and the
// slab must be retried.
TEST(Algorithm2, ThrowingTraceSinkNeverDropsASlab) {
  par::ThreadPool pool(4);
  const PolygonSet a = test::random_polygon(11, 200, 0, 0, 10);
  const PolygonSet b = test::random_polygon(12, 150, 1, -1, 9);
  Alg2Options o;
  o.slabs = 6;
  const PolygonSet want = slab_clip(a, b, BoolOp::kUnion, pool, o);
  test::ForceRetrySink sink(/*limit=*/1);
  o.trace_sink = &sink;
  Alg2Stats st;
  const PolygonSet got = slab_clip(a, b, BoolOp::kUnion, pool, o, &st);
  EXPECT_TRUE(test::areas_match(geom::signed_area(got),
                                geom::boolean_area_oracle(a, b, BoolOp::kUnion),
                                1e-5));
  EXPECT_EQ(fuzz::canonical_vertices(got), fuzz::canonical_vertices(want));
  ASSERT_EQ(st.degradation.size(), 6u);
  int retried = 0;
  for (const auto& rep : st.degradation) {
    if (rep.rung == Rung::kHealthy) continue;
    ++retried;
    EXPECT_EQ(rep.rung, Rung::kRetrySafe);
    EXPECT_EQ(rep.attempts, 2u);
    EXPECT_EQ(rep.message, "ForceRetrySink: healthy rung refused");
  }
  EXPECT_EQ(retried, 1);
}

}  // namespace
}  // namespace psclip::mt
