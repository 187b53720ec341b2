// Fault-injection matrix for the degradation ladder (requires a build with
// -DPSCLIP_FAULT_INJECTION=ON; the tests are not registered otherwise).
//
// Each case arms one deterministic fault plan — a site (band builder, Vatti
// sweep, arena borrow, task-group wrapper), a kind (throw, bad_alloc,
// silent output corruption), a slab key, and a fire count — then runs
// slab_clip / multiset_clip and asserts BOTH halves of the isolation
// contract:
//
//   1. recovery: the output matches the unfaulted run — byte-identical
//      when recovery happens on the kRetrySafe rung (fresh scratch,
//      guaranteed bit-equal to the healthy path by the fused-partition
//      identity suite), area-equal on the kWholeInput rung
//      (the sequential whole-input clip no longer splits contours at slab
//      boundaries);
//   2. accounting: Alg2Stats::degradation records exactly the expected
//      rung, attempt count, and cause taxonomy code for the faulted slab,
//      and kHealthy everywhere else (kWholeInput everywhere once the
//      whole-input fallback fired).
//
// Rung reachability: both engines walk the same ladder, kHealthy →
// kRetrySafe per slab, then kWholeInput for the whole request, and one
// fault firing aborts exactly one attempt. Both per-slab rungs enter the
// Vatti sweep (and, in slab_clip, the band builder's kFusedBounds site),
// so a kVattiSweep or slab_clip kFusedBounds plan keyed to one slab ends
// on kRetrySafe when it fires once and exhausts the slab when it fires
// twice or more; the whole-input clip then runs keyless, out of the plan's
// reach. The arena — and, in multiset_clip, the band builder — is only
// reached on the healthy rung, so even an unbounded plan there stops at
// kRetrySafe. The slab engines never rect-clip; the kRectClip site is
// covered through seq::rect_clip itself (RectClipFaultInjection).

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "geom/polygon.hpp"
#include "mt/algorithm2.hpp"
#include "mt/multiset.hpp"
#include "mt/stats.hpp"
#include "parallel/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/rect_clip.hpp"
#include "test_support.hpp"

namespace psclip {
namespace {

using geom::BoolOp;
using geom::PolygonSet;
using mt::Rung;
using par::fault::Kind;
using par::fault::Plan;
using par::fault::Site;

static_assert(par::fault::kEnabled,
              "fault_injection_test requires PSCLIP_FAULT_INJECTION=ON");

/// RAII disarm so a failing assertion cannot leak an armed plan into the
/// next test.
struct ArmedPlan {
  explicit ArmedPlan(const Plan& p) { par::fault::arm(p); }
  ~ArmedPlan() { par::fault::disarm(); }
};

void expect_identical(const PolygonSet& got, const PolygonSet& want,
                      const std::string& what) {
  ASSERT_EQ(got.num_contours(), want.num_contours()) << what;
  for (std::size_t i = 0; i < got.contours.size(); ++i) {
    ASSERT_EQ(got.contours[i].pts.size(), want.contours[i].pts.size())
        << what << " contour " << i;
    for (std::size_t j = 0; j < got.contours[i].pts.size(); ++j) {
      EXPECT_EQ(got.contours[i][j].x, want.contours[i][j].x)
          << what << " contour " << i << " vertex " << j;
      EXPECT_EQ(got.contours[i][j].y, want.contours[i][j].y)
          << what << " contour " << i << " vertex " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// slab_clip matrix
// ---------------------------------------------------------------------------

struct SlabMatrixCase {
  const char* name;
  Site site;
  Kind kind;
  std::uint64_t fire_count;
  Rung want_rung;      ///< rung of the faulted slab
  ErrorCode want_cause;
  bool byte_identical;  ///< kWholeInput is area-equal, not bit-equal
};

// The targeted slab. With slabs=4 on the blob pair every slab cuts
// straddling bounds, so every rung's fault site is actually reached.
constexpr std::uint64_t kSlab = 1;

const SlabMatrixCase kSlabMatrix[] = {
    // One firing at each site -> first retry succeeds, byte-identical.
    {"vatti-throw-1", Site::kVattiSweep, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"vatti-badalloc-1", Site::kVattiSweep, Kind::kBadAlloc, 1,
     Rung::kRetrySafe, ErrorCode::kResource, true},
    {"vatti-corrupt-1", Site::kVattiSweep, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    {"arena-throw-1", Site::kArena, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"arena-corrupt-1", Site::kArena, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    // The band builder (seq::build_band entry; corrupt reports a poisoned
    // fragment, caught before the sweep). Both per-slab rungs build bands.
    {"fusedbounds-throw-1", Site::kFusedBounds, Kind::kThrow, 1,
     Rung::kRetrySafe, ErrorCode::kInjected, true},
    {"fusedbounds-badalloc-1", Site::kFusedBounds, Kind::kBadAlloc, 1,
     Rung::kRetrySafe, ErrorCode::kResource, true},
    {"fusedbounds-corrupt-1", Site::kFusedBounds, Kind::kCorrupt, 1,
     Rung::kRetrySafe, ErrorCode::kNonFinite, true},
    // Two firings fail both per-slab rungs, so a repeated fault in one
    // slab ends on the whole-input fallback; shots left over stay unused
    // there because it runs keyless.
    {"vatti-throw-2", Site::kVattiSweep, Kind::kThrow, 2, Rung::kWholeInput,
     ErrorCode::kInjected, false},
    {"vatti-throw-3", Site::kVattiSweep, Kind::kThrow, 3, Rung::kWholeInput,
     ErrorCode::kInjected, false},
    {"fusedbounds-throw-2", Site::kFusedBounds, Kind::kThrow, 2,
     Rung::kWholeInput, ErrorCode::kInjected, false},
    {"fusedbounds-badalloc-2", Site::kFusedBounds, Kind::kBadAlloc, 2,
     Rung::kWholeInput, ErrorCode::kResource, false},
    {"fusedbounds-corrupt-2", Site::kFusedBounds, Kind::kCorrupt, 2,
     Rung::kWholeInput, ErrorCode::kNonFinite, false},
    {"fusedbounds-throw-many", Site::kFusedBounds, Kind::kThrow, 100,
     Rung::kWholeInput, ErrorCode::kInjected, false},
    // The arena is only borrowed on the healthy rung.
    {"arena-throw-many", Site::kArena, Kind::kThrow, 100, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    // Every rung enters vatti_clip, so an unbounded keyed plan exhausts the
    // per-slab ladder and forces the whole-input sequential fallback
    // (which runs keyless, out of the plan's reach).
    {"vatti-throw-whole-input", Site::kVattiSweep, Kind::kThrow, 100,
     Rung::kWholeInput, ErrorCode::kInjected, false},
};

class SlabFaultMatrix : public ::testing::TestWithParam<SlabMatrixCase> {};

TEST_P(SlabFaultMatrix, SingleSlabFaultIsIsolated) {
  const SlabMatrixCase c = GetParam();
  SCOPED_TRACE(c.name);
  const auto pair = data::synthetic_pair(7, 48);
  par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = 4;

  par::fault::disarm();
  mt::Alg2Stats base_stats;
  const PolygonSet want =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kIntersection, pool, o,
                    &base_stats);
  ASSERT_EQ(base_stats.degraded_slabs(), 0);
  const std::size_t nslabs = base_stats.degradation.size();
  ASSERT_GT(nslabs, kSlab);

  Plan p;
  p.site = c.site;
  p.kind = c.kind;
  p.key = kSlab;
  p.fire_count = c.fire_count;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kIntersection, pool, o,
                    &stats);
  EXPECT_GT(par::fault::fired(), 0u) << "plan never fired";

  // Accounting: the faulted slab reports exactly the expected rung and
  // cause; under the whole-input fallback every slab reports kWholeInput.
  ASSERT_EQ(stats.degradation.size(), nslabs);
  const mt::DegradationReport& rep = stats.degradation[kSlab];
  EXPECT_EQ(rep.rung, c.want_rung)
      << "got rung " << mt::to_string(rep.rung) << ": " << rep.message;
  EXPECT_EQ(rep.cause, c.want_cause) << rep.message;
  EXPECT_FALSE(rep.message.empty());
  if (c.want_rung != Rung::kWholeInput) {
    // One attempt per rung walked: a slab recovering on rung r made r
    // failed attempts plus the successful one.
    EXPECT_EQ(rep.attempts, static_cast<std::uint32_t>(c.want_rung) + 1);
    for (std::size_t t = 0; t < nslabs; ++t) {
      if (t == kSlab) continue;
      EXPECT_EQ(stats.degradation[t].rung, Rung::kHealthy)
          << "fault leaked into slab " << t << ": "
          << stats.degradation[t].message;
    }
  } else {
    // The faulted slab failed both per-slab rungs.
    EXPECT_EQ(rep.attempts, 2u);
    for (std::size_t t = 0; t < nslabs; ++t)
      EXPECT_EQ(stats.degradation[t].rung, Rung::kWholeInput) << "slab " << t;
  }
  EXPECT_EQ(stats.worst_rung(), c.want_rung);

  // Recovery: byte-identity on the safe-retry rung, area identity beyond.
  if (c.byte_identical) {
    expect_identical(got, want, c.name);
  } else {
    EXPECT_TRUE(test::areas_match(geom::signed_area(got),
                                  geom::signed_area(want), 1e-6))
        << "faulted=" << geom::signed_area(got)
        << " unfaulted=" << geom::signed_area(want);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SlabFaultMatrix,
                         ::testing::ValuesIn(kSlabMatrix),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// A fault in the TaskGroup wrapper kills the slab task before its body
// runs; the caller must recover the lost slab on the safe-retry rung with
// byte-identical output. (Sibling slabs skipped by the group's
// fail-fast flag are recovered the same way — also bit-identical.)
TEST(SlabFaultInjection, TaskGroupFaultRecoversOnCaller) {
  const auto pair = data::synthetic_pair(11, 48);
  par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = 4;

  par::fault::disarm();
  const PolygonSet want =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kUnion, pool, o);

  Plan p;
  p.site = Site::kTaskGroup;
  p.kind = Kind::kThrow;
  p.key = kSlab;  // TaskGroup keys by submission index == slab index
  p.fire_count = 1;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kUnion, pool, o, &stats);
  EXPECT_EQ(par::fault::fired(), 1u);

  ASSERT_GT(stats.degradation.size(), kSlab);
  EXPECT_EQ(stats.degradation[kSlab].rung, Rung::kRetrySafe)
      << stats.degradation[kSlab].message;
  EXPECT_EQ(stats.degradation[kSlab].cause, ErrorCode::kInjected);
  // Slabs the group skipped after the failure also land on kRetrySafe;
  // nothing may fall deeper than that.
  for (const auto& rep : stats.degradation)
    EXPECT_LE(rep.rung, Rung::kRetrySafe) << rep.message;

  expect_identical(got, want, "task-group fault");
}

// Unkeyed unbounded plan: every slab fails on every rung AND the
// whole-input fallback itself faults — nothing can produce output, so the
// error must propagate rather than return garbage.
TEST(SlabFaultInjection, UnboundedAnyKeyFaultPropagates) {
  const auto pair = data::synthetic_pair(17, 40);
  par::ThreadPool pool(4);
  mt::Alg2Options o;
  o.slabs = 4;

  Plan p;
  p.site = Site::kVattiSweep;
  p.kind = Kind::kThrow;
  p.key = par::fault::kAnyKey;
  p.fire_count = ~std::uint64_t{0};
  ArmedPlan armed(p);

  EXPECT_THROW(
      mt::slab_clip(pair.subject, pair.clip, BoolOp::kIntersection, pool, o),
      Error);
}

// ---------------------------------------------------------------------------
// multiset_clip matrix
// ---------------------------------------------------------------------------

struct MultisetMatrixCase {
  const char* name;
  Site site;
  Kind kind;
  std::uint64_t fire_count;
  Rung want_rung;
  ErrorCode want_cause;
  bool byte_identical;
};

const MultisetMatrixCase kMultisetMatrix[] = {
    {"vatti-throw-1", Site::kVattiSweep, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"vatti-badalloc-1", Site::kVattiSweep, Kind::kBadAlloc, 1,
     Rung::kRetrySafe, ErrorCode::kResource, true},
    {"vatti-corrupt-1", Site::kVattiSweep, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    {"arena-throw-1", Site::kArena, Kind::kThrow, 1, Rung::kRetrySafe,
     ErrorCode::kInjected, true},
    {"arena-corrupt-1", Site::kArena, Kind::kCorrupt, 1, Rung::kRetrySafe,
     ErrorCode::kNonFinite, true},
    // The band builder fires at the top of the fused healthy rung only;
    // multiset_clip's kRetrySafe materializes polygons for vatti_clip, so
    // the plan goes quiet there even with shots left.
    {"fusedbounds-throw-1", Site::kFusedBounds, Kind::kThrow, 1,
     Rung::kRetrySafe, ErrorCode::kInjected, true},
    {"fusedbounds-throw-many", Site::kFusedBounds, Kind::kThrow, 100,
     Rung::kRetrySafe, ErrorCode::kInjected, true},
    // Same ladder as slab_clip: two firings fail both per-slab rungs, and
    // so does an unbounded keyed plan; both force the keyless whole-input
    // fallback.
    {"vatti-throw-2", Site::kVattiSweep, Kind::kThrow, 2, Rung::kWholeInput,
     ErrorCode::kInjected, false},
    {"vatti-throw-whole-input", Site::kVattiSweep, Kind::kThrow, 100,
     Rung::kWholeInput, ErrorCode::kInjected, false},
};

class MultisetFaultMatrix
    : public ::testing::TestWithParam<MultisetMatrixCase> {};

TEST_P(MultisetFaultMatrix, SingleSlabFaultIsIsolated) {
  const MultisetMatrixCase c = GetParam();
  SCOPED_TRACE(c.name);
  const PolygonSet a = data::polygon_field(501, 24, 100.0, 8);
  const PolygonSet b = data::polygon_field(502, 24, 100.0, 7);
  par::ThreadPool pool(4);
  mt::MultisetOptions o;
  o.slabs = 4;

  par::fault::disarm();
  mt::Alg2Stats base_stats;
  const PolygonSet want = mt::multiset_clip(a, b, BoolOp::kIntersection, pool,
                                            o, &base_stats);
  ASSERT_EQ(base_stats.degraded_slabs(), 0);
  const std::size_t nslabs = base_stats.degradation.size();
  ASSERT_GT(nslabs, kSlab);

  Plan p;
  p.site = c.site;
  p.kind = c.kind;
  p.key = kSlab;
  p.fire_count = c.fire_count;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::multiset_clip(a, b, BoolOp::kIntersection, pool, o, &stats);
  EXPECT_GT(par::fault::fired(), 0u) << "plan never fired";

  ASSERT_EQ(stats.degradation.size(), nslabs);
  const mt::DegradationReport& rep = stats.degradation[kSlab];
  EXPECT_EQ(rep.rung, c.want_rung)
      << "got rung " << mt::to_string(rep.rung) << ": " << rep.message;
  EXPECT_EQ(rep.cause, c.want_cause) << rep.message;
  if (c.want_rung != Rung::kWholeInput) {
    EXPECT_EQ(rep.attempts, static_cast<std::uint32_t>(c.want_rung) + 1);
    for (std::size_t t = 0; t < nslabs; ++t) {
      if (t == kSlab) continue;
      EXPECT_EQ(stats.degradation[t].rung, Rung::kHealthy)
          << "fault leaked into slab " << t;
    }
  } else {
    EXPECT_EQ(rep.attempts, 2u);
    for (std::size_t t = 0; t < nslabs; ++t)
      EXPECT_EQ(stats.degradation[t].rung, Rung::kWholeInput) << "slab " << t;
  }
  EXPECT_EQ(stats.worst_rung(), c.want_rung);

  if (c.byte_identical) {
    expect_identical(got, want, c.name);
  } else {
    EXPECT_TRUE(test::areas_match(geom::signed_area(got),
                                  geom::signed_area(want), 1e-6))
        << "faulted=" << geom::signed_area(got)
        << " unfaulted=" << geom::signed_area(want);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MultisetFaultMatrix,
                         ::testing::ValuesIn(kMultisetMatrix),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// Multiset slabs share slab_clip's runner: a fault in the TaskGroup
// wrapper loses the slab task, and the caller recovers it on kRetrySafe
// with byte-identical output.
TEST(MultisetFaultInjection, TaskGroupFaultRecoversOnCaller) {
  const PolygonSet a = data::polygon_field(521, 24, 100.0, 8);
  const PolygonSet b = data::polygon_field(522, 24, 100.0, 7);
  par::ThreadPool pool(4);
  mt::MultisetOptions o;
  o.slabs = 4;

  par::fault::disarm();
  const PolygonSet want = mt::multiset_clip(a, b, BoolOp::kUnion, pool, o);

  Plan p;
  p.site = Site::kTaskGroup;
  p.kind = Kind::kThrow;
  p.key = kSlab;  // TaskGroup keys by submission index == slab index
  p.fire_count = 1;
  ArmedPlan armed(p);

  mt::Alg2Stats stats;
  const PolygonSet got =
      mt::multiset_clip(a, b, BoolOp::kUnion, pool, o, &stats);
  EXPECT_EQ(par::fault::fired(), 1u);

  ASSERT_GT(stats.degradation.size(), kSlab);
  EXPECT_EQ(stats.degradation[kSlab].rung, Rung::kRetrySafe)
      << stats.degradation[kSlab].message;
  EXPECT_EQ(stats.degradation[kSlab].cause, ErrorCode::kInjected);
  for (const auto& rep : stats.degradation)
    EXPECT_LE(rep.rung, Rung::kRetrySafe) << rep.message;

  expect_identical(got, want, "multiset task-group fault");
}

// ---------------------------------------------------------------------------
// seq::rect_clip (viewport clipping): the kRectClip site
// ---------------------------------------------------------------------------

// The site sits on the straddling path: every kind fires there, and a
// contour fully inside the rectangle takes the pass-through path without
// reaching it.
TEST(RectClipFaultInjection, StraddlingPathHostsTheSite) {
  const PolygonSet straddling =
      geom::make_polygon({{-5, -5}, {15, -5}, {15, 15}, {-5, 15}});
  const PolygonSet inside = geom::make_polygon({{2, 2}, {8, 2}, {8, 8}});
  const geom::BBox rect{0, 0, 10, 10};
  for (const Kind kind : {Kind::kThrow, Kind::kBadAlloc, Kind::kCorrupt}) {
    SCOPED_TRACE(par::fault::to_string(kind));
    Plan p;
    p.site = Site::kRectClip;
    p.kind = kind;
    p.key = par::fault::kAnyKey;
    p.fire_count = 1;
    ArmedPlan armed(p);
    EXPECT_EQ(seq::rect_clip(inside, rect).num_contours(), 1u);
    EXPECT_EQ(par::fault::fired(), 0u);
    switch (kind) {
      case Kind::kThrow:
        EXPECT_THROW(seq::rect_clip(straddling, rect), Error);
        break;
      case Kind::kBadAlloc:
        EXPECT_THROW(seq::rect_clip(straddling, rect), std::bad_alloc);
        break;
      default:
        EXPECT_FALSE(geom::is_finite(seq::rect_clip(straddling, rect)));
        break;
    }
    EXPECT_EQ(par::fault::fired(), 1u);
    // The plan is spent: the next clip is clean and exact.
    EXPECT_DOUBLE_EQ(geom::signed_area(seq::rect_clip(straddling, rect)),
                     100.0);
  }
}

}  // namespace
}  // namespace psclip
