#include "psclip.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;

TEST(Facade, AllEnginesAgree) {
  const PolygonSet a = test::random_polygon(4001, 20, 0, 0, 10);
  const PolygonSet b = test::random_polygon(4002, 16, 1, 1, 8);
  for (const BoolOp op : geom::kAllOps) {
    const double want = geom::boolean_area_oracle(a, b, op);
    for (const Engine e : {Engine::kAuto, Engine::kVatti, Engine::kMartinez,
                           Engine::kScanbeam, Engine::kSlab}) {
      const double got = geom::signed_area(clip(a, b, op, e));
      EXPECT_TRUE(test::areas_match(got, want, 1e-5))
          << geom::to_string(op) << " engine=" << static_cast<int>(e)
          << " got=" << got << " want=" << want;
    }
  }
}

TEST(Facade, AutoPicksSomethingSaneForEmptyInput) {
  EXPECT_TRUE(clip({}, {}, BoolOp::kUnion).empty());
}

// The kAuto dispatch rule is part of the public contract now that a serving
// layer reproduces results by re-running the facade: the threshold, the
// single-thread fallback, and the pass-through of explicit requests are all
// pinned at compile time.
TEST(Facade, ResolveEnginePinsTheAutoSelectionRule) {
  static_assert(kAutoSlabMinVertices == 8000,
                "moving the kAuto threshold invalidates every cached "
                "reproduction recipe; bump deliberately");
  // Threshold boundary, multi-threaded pool.
  static_assert(resolve_engine(Engine::kAuto, 7999, 8) == Engine::kVatti);
  static_assert(resolve_engine(Engine::kAuto, 8000, 8) == Engine::kSlab);
  static_assert(resolve_engine(Engine::kAuto, 8000, 2) == Engine::kSlab);
  // A 1-thread pool can never run slabs in parallel: sequential fallback
  // regardless of size.
  static_assert(resolve_engine(Engine::kAuto, 8000, 1) == Engine::kVatti);
  static_assert(resolve_engine(Engine::kAuto, std::size_t{1} << 30, 1) ==
                Engine::kVatti);
  static_assert(resolve_engine(Engine::kAuto, 0, 64) == Engine::kVatti);
  // Explicit requests pass through untouched.
  static_assert(resolve_engine(Engine::kVatti, 1 << 30, 64) == Engine::kVatti);
  static_assert(resolve_engine(Engine::kMartinez, 1 << 30, 64) ==
                Engine::kMartinez);
  static_assert(resolve_engine(Engine::kScanbeam, 3, 1) == Engine::kScanbeam);
  static_assert(resolve_engine(Engine::kSlab, 3, 1) == Engine::kSlab);
  // resolve_engine never returns kAuto.
  static_assert(resolve_engine(Engine::kAuto, 5, 4) != Engine::kAuto);
  static_assert(resolve_engine(Engine::kAuto, 1 << 21, 4) != Engine::kAuto);
}

/// Counts alg2.slab spans — the observable signature of the slab engine.
class SlabSpanCounter final : public obs::TraceSink {
 public:
  obs::SpanId begin_span(const char* name, obs::Cat, obs::SpanId) override {
    if (std::strcmp(name, "alg2.slab") == 0)
      slabs_.fetch_add(1, std::memory_order_relaxed);
    return obs::SpanId{next_.fetch_add(1, std::memory_order_relaxed)};
  }
  void end_span(obs::SpanId) override {}
  void span_arg(obs::SpanId, const char*, std::int64_t) override {}
  void add_counter(const char*, std::int64_t) override {}
  void observe(const char*, double) override {}

  [[nodiscard]] int slabs() const { return slabs_.load(); }

 private:
  std::atomic<int> slabs_{0};
  std::atomic<std::uint64_t> next_{1};
};

TEST(Facade, AutoDispatchFollowsResolveEngineEndToEnd) {
  const auto ring = [](std::size_t n, double cx, double r) {
    geom::Contour c;
    c.pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = 2.0 * 3.141592653589793 * static_cast<double>(i) /
                       static_cast<double>(n);
      c.pts.push_back({cx + r * std::cos(t), r * std::sin(t)});
    }
    PolygonSet p;
    p.add(std::move(c));
    return p;
  };

  par::ThreadPool pool4(4), pool1(1);
  const PolygonSet big_a = ring(4000, 0, 10), big_b = ring(4000, 5, 10);
  const PolygonSet just_under = ring(3999, 0, 10);

  {  // 8000 vertices on a parallel pool: kAuto must run the slab engine.
    SlabSpanCounter sink;
    ClipOptions copts;
    copts.pool = &pool4;
    copts.trace_sink = &sink;
    (void)clip(big_a, big_b, BoolOp::kIntersection, copts);
    EXPECT_GT(sink.slabs(), 0) << "kAuto at the threshold must go parallel";
  }
  {  // Same input, 1-thread pool: sequential fallback, no slab spans.
    SlabSpanCounter sink;
    ClipOptions copts;
    copts.pool = &pool1;
    copts.trace_sink = &sink;
    (void)clip(big_a, big_b, BoolOp::kIntersection, copts);
    EXPECT_EQ(sink.slabs(), 0) << "a 1-thread pool must fall back to Vatti";
  }
  {  // 7999 vertices: one vertex under the threshold stays sequential.
    SlabSpanCounter sink;
    ClipOptions copts;
    copts.pool = &pool4;
    copts.trace_sink = &sink;
    (void)clip(just_under, big_b, BoolOp::kIntersection, copts);
    EXPECT_EQ(sink.slabs(), 0) << "below the threshold kAuto stays serial";
  }
}

TEST(Facade, UmbrellaHeaderExposesEverything) {
  // Spot-check that one symbol from each subsystem is reachable through
  // the single include.
  const PolygonSet sq =
      geom::make_polygon({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_TRUE(geom::point_in_polygon({1, 1}, sq));
  EXPECT_FALSE(geom::to_wkt(sq).empty());
  EXPECT_FALSE(geom::to_geojson(sq).empty());
  EXPECT_EQ(geom::nest_contours(sq).size(), 1u);
  EXPECT_GE(par::default_pool().size(), 1u);
  seq::VattiStats st;
  (void)seq::vatti_clip(sq, sq, BoolOp::kUnion, &st);
}

}  // namespace
}  // namespace psclip
