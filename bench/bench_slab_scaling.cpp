// Slab-clip CPU scaling gates.
//
// The question: when the same request is cut into p slabs instead of 1, how
// much *extra CPU* do the partition and clip phases burn? Two workloads:
//
//   - a field of many small contours (polygon_field x2), where every
//     contour lies inside one or two slabs: the clip-CPU inflation gate.
//     Before the fused partition, every slab re-derived the Vatti sweep
//     structures from scratch and slabbing inflated clip CPU by ~2x; the
//     healthy rung now copies globally prepared bound fragments and slices
//     one shared schedule.
//   - one large blob pair (synthetic_pair(1, 24000), pair_large's input),
//     whose two contours straddle every slab: the partition-CPU gate. When
//     each slab rect-clipped every straddling contour in full, partition
//     CPU grew as O(n·p) (10.6x from 1 to 16 slabs); the band builder cuts
//     each prepared monotone bound to the band with two binary searches,
//     so partition work stays O(n + k').
//
// Gates (exit nonzero on violation, what CI's perf-smoke keys on):
//   1. inflation (field): clip_cpu(slabs=p) / clip_cpu(slabs=1) <= GATE for
//      p in {4, 8, 16}. GATE defaults to 1.30 and can be overridden with
//      PSCLIP_SCALING_GATE=<float> (CI relaxes it on tiny runners).
//   2. wall win (field): at p ~ hardware cores, slab_clip wall time must
//      beat the single-slab run. Skipped on hosts with <= 2 hardware
//      threads, where there is no parallelism to win with.
//   3. partition (blob): partition_cpu(slabs=16) / partition_cpu(slabs=1)
//      <= 1.5.
//
// clip_cpu / partition_cpu are thread-CPU-clock sums (see
// SlabLoad::cpu_seconds, PhaseTimes) — wall timers inside slab tasks
// double-charge descheduled time.
//
// With --json <path>, both sweeps are mirrored to a schema report
// (BENCH_scaling.json in CI and in the repo): rows "scaling" (field) and
// "blob_scaling" (blob).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "geom/bool_op.hpp"
#include "mt/algorithm2.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace psclip;

double env_gate(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return fallback;
}

/// One sweep point of a workload.
struct Point {
  unsigned slabs = 0;
  double clip_cpu = 0.0, partition_cpu = 0.0, wall = 0.0;
  long long touched = 0;
};

/// Run the union at `slabs`, print the table line and mirror it into
/// `report` as a row named `row`. Ratios are against `base` (the 1-slab
/// point; pass null for the 1-slab run itself).
Point run_point(const geom::PolygonSet& subject, const geom::PolygonSet& clip,
                par::ThreadPool& pool, unsigned slabs, const Point* base,
                bench::JsonReport& report, const char* row) {
  mt::Alg2Options o;
  o.slabs = slabs;
  mt::Alg2Stats st;
  geom::PolygonSet r;
  Point pt;
  pt.slabs = slabs;
  pt.wall = bench::time_median3([&] {
    r = mt::slab_clip(subject, clip, geom::BoolOp::kUnion, pool, o, &st);
  });
  (void)r;
  for (const auto& sl : st.slabs) pt.touched += sl.touched_edges;
  pt.clip_cpu = st.phases.clip_cpu;
  pt.partition_cpu = st.phases.partition_cpu;
  const Point& b = base ? *base : pt;
  const double inflation = b.clip_cpu > 0.0 ? pt.clip_cpu / b.clip_cpu : 1.0;
  const double part_ratio =
      b.partition_cpu > 0.0 ? pt.partition_cpu / b.partition_cpu : 1.0;
  std::printf("%6u | %12.3f %12.3f %10.3f %10.3f | %12.3f %12lld\n", slabs,
              pt.clip_cpu * 1e3, pt.partition_cpu * 1e3, inflation,
              part_ratio, pt.wall * 1e3, pt.touched);
  report.row(row);
  report.cell("slabs", static_cast<long long>(slabs));
  report.cell("clip_cpu_ms", pt.clip_cpu * 1e3);
  report.cell("partition_cpu_ms", pt.partition_cpu * 1e3);
  report.cell("inflation", inflation);
  report.cell("partition_ratio", part_ratio);
  report.cell("wall_ms", pt.wall * 1e3);
  report.cell("touched_edges", pt.touched);
  return pt;
}

void table_header() {
  std::printf("%6s | %12s %12s %10s %10s | %12s %12s\n", "slabs",
              "clip_cpu(ms)", "part_cpu(ms)", "inflation", "part_ratio",
              "wall (ms)", "touched");
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Slab-clip CPU scaling: clip inflation and partition gates",
                "Alg 2 Steps 4-6, output-sensitive per-slab setup");

  const double gate = env_gate("PSCLIP_SCALING_GATE", 1.30);
  constexpr double pgate = 1.5;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  par::ThreadPool pool;
  bench::JsonReport report;
  report.field("bench", std::string("slab_scaling"));
  report.field("pool_threads", static_cast<long long>(pool.size()));
  report.field("gate", gate);
  report.field("partition_gate", pgate);
  bool gate_ok = true;

  {
    // Floor of 400 contours (~8.8k vertices): below that, fixed per-slab
    // costs (arena borrow, schedule slice, AET setup) dominate the
    // numerator and the ratio measures overhead amortization, not
    // re-derivation work — the thing this gate exists to bound.
    const int field_count =
        std::max(400, static_cast<int>(4000 * bench::dataset_scale()));
    const geom::PolygonSet subject =
        data::polygon_field(9001, field_count, 100.0, 12);
    const geom::PolygonSet clip =
        data::polygon_field(9002, field_count, 100.0, 10);
    const auto total_verts =
        static_cast<long long>(subject.num_vertices() + clip.num_vertices());
    std::printf(
        "workload: 2 x polygon_field(%d contours), %lld vertices; "
        "gate %.2fx, %u hw threads, pool %u\n\n",
        field_count, total_verts, gate, hw, pool.size());
    table_header();
    report.field("workload", std::string("polygon_field x2"));
    report.field("contours_per_layer", static_cast<long long>(field_count));
    report.field("total_vertices", total_verts);

    Point base;
    for (const unsigned slabs : {1u, 4u, 8u, 16u}) {
      const Point pt = run_point(subject, clip, pool, slabs,
                                 slabs == 1 ? nullptr : &base, report,
                                 "scaling");
      if (slabs == 1) {
        base = pt;
        continue;
      }
      const double inflation = pt.clip_cpu / base.clip_cpu;
      if (inflation > gate) {
        std::fprintf(stderr,
                     "FAIL: clip CPU inflation %.3fx at %u slabs exceeds the "
                     "%.2fx gate\n",
                     inflation, slabs, gate);
        gate_ok = false;
      }
      // Wall win at roughly the core count: pick the sweep point closest
      // to the host's hardware concurrency (>= 2 cores only — a serial
      // host has nothing to win with).
      if (hw > 2 && (slabs >= hw || slabs * 2 > hw) && slabs <= hw * 2 &&
          pt.wall >= base.wall) {
        std::fprintf(stderr,
                     "FAIL: wall %.3f ms at %u slabs does not beat the "
                     "single-slab %.3f ms on a %u-thread host\n",
                     pt.wall * 1e3, slabs, base.wall * 1e3, hw);
        gate_ok = false;
      }
    }
  }

  {
    // pair_large's input at full size regardless of PSCLIP_BENCH_SCALE:
    // the O(n·p) partition only shows on contours that straddle every
    // slab, and a smaller blob would let fixed costs hide it.
    const auto pair = data::synthetic_pair(1, 24000);
    const auto total_verts = static_cast<long long>(
        pair.subject.num_vertices() + pair.clip.num_vertices());
    std::printf(
        "\nworkload: synthetic_pair(1, 24000) union, %lld vertices; "
        "partition gate %.2fx at 16 slabs\n\n",
        total_verts, pgate);
    table_header();
    report.field("blob_workload", std::string("synthetic_pair(1, 24000)"));
    report.field("blob_total_vertices", total_verts);

    Point base;
    for (const unsigned slabs : {1u, 4u, 8u, 16u}) {
      const Point pt = run_point(pair.subject, pair.clip, pool, slabs,
                                 slabs == 1 ? nullptr : &base, report,
                                 "blob_scaling");
      if (slabs == 1) base = pt;
      const double ratio = pt.partition_cpu / base.partition_cpu;
      if (slabs == 16 && ratio > pgate) {
        std::fprintf(stderr,
                     "FAIL: partition CPU %.3fx at 16 slabs exceeds the "
                     "%.2fx gate\n",
                     ratio, pgate);
        gate_ok = false;
      }
    }
  }
  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nwrote %s\n", path);
  }
  return gate_ok ? 0 : 1;
}
