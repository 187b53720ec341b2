// Ablation: the two partitioning layers.
//
// Section 1 — Algorithm 1 Step 2 edge partitioning: the paper's cover-list
// segment tree (two-phase count/report, §III-E) versus direct per-edge
// binning. Both are output-sensitive in k'; the segment tree bounds the
// *per-item* work by O(log m) while direct binning pays O(beams spanned).
//
// Section 2 — Algorithm 2 Steps 4-5 slab partitioning: the fused partition
// (a slab-overlap index picks each slab's contours and bounds, and slabs
// copy or band-cut globally prepared bound fragments) versus the paper's
// broadcast formulation (every slab scans both whole inputs, O(p·n)). The
// broadcast partition is slab_clip's kRetrySafe path, which re-prepares
// every contour of both inputs on fresh scratch; the broadcast column runs it
// on every slab through test::ForceRetrySink, a trace sink that fails each
// slab's healthy attempt (so it also pays one refused attempt per slab,
// which is negligible next to the partition itself). `touched`
// counts the input the partition step read — bound edges appended (fused)
// or input vertices scanned (broadcast) — a deterministic, machine-noise-
// free measure of partition work. With --json <path>, section 2 is
// mirrored to a machine-readable report; the process exits nonzero if the
// fused partition ever reads more input than the broadcast scan at p >= 4
// slabs or if the two paths disagree on the output, which is what CI gates
// on.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "core/scanbeam.hpp"
#include "data/synthetic.hpp"
#include "geom/perturb.hpp"
#include "mt/algorithm2.hpp"
#include "test_support.hpp"

namespace {

bool identical(const psclip::geom::PolygonSet& a,
               const psclip::geom::PolygonSet& b) {
  if (a.num_contours() != b.num_contours()) return false;
  for (std::size_t i = 0; i < a.contours.size(); ++i) {
    if (a.contours[i].pts.size() != b.contours[i].pts.size()) return false;
    for (std::size_t j = 0; j < a.contours[i].pts.size(); ++j)
      if (a.contours[i].pts[j].x != b.contours[i].pts[j].x ||
          a.contours[i].pts[j].y != b.contours[i].pts[j].y)
        return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psclip;
  bench::header("Ablation — Step 2 partitioning: segment tree vs direct binning",
                "paper §III-E Step 2");

  par::ThreadPool pool;
  std::printf("%8s %8s %10s | %14s %14s\n", "edges", "beams", "k'",
              "segtree (ms)", "direct (ms)");
  for (int edges : {1000, 4000, 16000, 64000}) {
    auto pair = data::synthetic_pair(61, edges);
    geom::PolygonSet s = geom::cleaned(pair.subject);
    geom::PolygonSet c = geom::cleaned(pair.clip);
    geom::remove_horizontals(s);
    geom::remove_horizontals(c);
    const seq::BoundTable bt = seq::build_bounds(s, c);

    core::ScanbeamPartition part;
    const double t_tree = bench::time_median3(
        [&] { part = core::partition_scanbeams(pool, bt); });
    const double t_direct = bench::time_median3(
        [&] { auto p = core::partition_scanbeams_direct(pool, bt); (void)p; });
    std::printf("%8zu %8zu %10lld | %14.3f %14.3f\n", bt.num_edges(),
                part.num_beams(),
                static_cast<long long>(part.k_prime(bt.num_edges())),
                t_tree * 1e3, t_direct * 1e3);
  }

  bench::header(
      "Ablation — Alg 2 slab partition: fused (indexed) vs broadcast",
      "paper Alg 2 Steps 4-5, made output-sensitive");

  // Multi-contour overlay: two polygon-layer fields, the workload where
  // per-slab contour selection matters (a single huge contour overlaps
  // every slab and the index degenerates to the broadcast, by design).
  const int field_count =
      std::max(40, static_cast<int>(4000 * bench::dataset_scale()));
  const geom::PolygonSet subject =
      data::polygon_field(9001, field_count, 100.0, 12);
  const geom::PolygonSet clip =
      data::polygon_field(9002, field_count, 100.0, 10);
  const auto total_verts =
      static_cast<long long>(subject.num_vertices() + clip.num_vertices());
  std::printf("workload: 2 x polygon_field(%d contours), %lld vertices\n\n",
              field_count, total_verts);
  std::printf("%6s | %14s %14s | %12s %12s\n", "slabs", "touched(fus)",
              "touched(bcast)", "fused (ms)", "bcast (ms)");

  bench::JsonReport report;
  report.field("bench", std::string("ablation_partition"));
  report.field("workload", std::string("polygon_field x2"));
  report.field("contours_per_layer", static_cast<long long>(field_count));
  report.field("total_vertices", total_verts);
  report.field("pool_threads", static_cast<long long>(pool.size()));

  bool gate_ok = true;
  test::ForceRetrySink force_retry;
  for (const unsigned slabs : {1u, 4u, 8u, 16u}) {
    mt::Alg2Options of, ob;
    of.slabs = ob.slabs = slabs;
    ob.trace_sink = &force_retry;

    mt::Alg2Stats sf, sb;
    geom::PolygonSet rf, rb;
    const double t_fused = bench::time_median3([&] {
      rf = mt::slab_clip(subject, clip, geom::BoolOp::kUnion, pool, of, &sf);
    });
    const double t_bcast = bench::time_median3([&] {
      rb = mt::slab_clip(subject, clip, geom::BoolOp::kUnion, pool, ob, &sb);
    });

    long long touched_fused = 0, touched_bcast = 0;
    for (const auto& sl : sf.slabs) touched_fused += sl.touched_edges;
    for (const auto& sl : sb.slabs) touched_bcast += sl.touched_edges;
    const double ratio =
        touched_bcast > 0 ? static_cast<double>(touched_fused) /
                                static_cast<double>(touched_bcast)
                          : 1.0;
    std::printf("%6u | %14lld %14lld | %12.3f %12.3f\n", slabs, touched_fused,
                touched_bcast, t_fused * 1e3, t_bcast * 1e3);

    report.row("slab_partition");
    report.cell("slabs", static_cast<long long>(slabs));
    report.cell("touched_fused", touched_fused);
    report.cell("touched_broadcast", touched_bcast);
    report.cell("touched_ratio", ratio);
    report.cell("fused_ms", t_fused * 1e3);
    report.cell("broadcast_ms", t_bcast * 1e3);
    // Peak scratch-arena bytes over the run's slabs (fused path): the
    // high-water mark the request memory budget would charge (schema 4).
    long long peak_arena = 0;
    for (const auto& sl : sf.slabs)
      peak_arena = std::max(peak_arena,
                            static_cast<long long>(sl.peak_arena_bytes));
    report.cell("peak_arena_bytes", peak_arena);
    // Phase breakdown of each path (from the instrumented Alg2Stats of the
    // last of the three timed runs). Wall = calling-thread section times
    // (sum ≈ the run's elapsed time); cpu = thread-CPU-clock phase time
    // summed across workers (clip_cpu can approach clip_wall × cores).
    // Schema 1 had one column mixing both units; schema 2 filled the cpu
    // side from wall timers inside the tasks.
    report.cell("fused_partition_wall_ms", sf.phases.partition * 1e3);
    report.cell("fused_clip_wall_ms", sf.phases.clip * 1e3);
    report.cell("fused_merge_wall_ms", sf.phases.merge * 1e3);
    report.cell("fused_partition_cpu_ms", sf.phases.partition_cpu * 1e3);
    report.cell("fused_clip_cpu_ms", sf.phases.clip_cpu * 1e3);
    report.cell("fused_merge_cpu_ms", sf.phases.merge_cpu * 1e3);
    report.cell("broadcast_partition_wall_ms", sb.phases.partition * 1e3);
    report.cell("broadcast_clip_wall_ms", sb.phases.clip * 1e3);
    report.cell("broadcast_merge_wall_ms", sb.phases.merge * 1e3);
    report.cell("broadcast_partition_cpu_ms", sb.phases.partition_cpu * 1e3);
    report.cell("broadcast_clip_cpu_ms", sb.phases.clip_cpu * 1e3);
    report.cell("broadcast_merge_cpu_ms", sb.phases.merge_cpu * 1e3);

    if (!test::all_slabs_retried(sb)) {
      std::fprintf(stderr,
                   "FAIL: broadcast run did not retry every slab at %u slabs\n",
                   slabs);
      gate_ok = false;
    }
    if (!identical(rf, rb)) {
      std::fprintf(stderr,
                   "FAIL: fused/broadcast outputs differ at %u slabs\n",
                   slabs);
      gate_ok = false;
    }
    if (slabs >= 4 && touched_fused > touched_bcast) {
      std::fprintf(stderr,
                   "FAIL: fused partition read more input than broadcast at "
                   "%u slabs (%lld > %lld)\n",
                   slabs, touched_fused, touched_bcast);
      gate_ok = false;
    }
  }
  report.field("gate_ok", static_cast<long long>(gate_ok ? 1 : 0));

  if (const char* path = bench::json_path(argc, argv)) {
    if (!report.write_file(path)) return 1;
    std::printf("\nwrote %s\n", path);
  }
  return gate_ok ? 0 : 1;
}
