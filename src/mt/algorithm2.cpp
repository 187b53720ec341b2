#include "mt/algorithm2.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "error.hpp"
#include "mt/slab_index.hpp"
#include "mt/slab_runner.hpp"
#include "obs/trace.hpp"
#include "parallel/sort.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"
#include "seq/rect_clip.hpp"
#include "seq/vatti.hpp"

namespace psclip::mt {
namespace {

constexpr EngineNames kNames{"alg2", "alg2.slab_clip", "alg2.clip",
                             "alg2.slab", "alg2.merge"};

/// Default slab count per pool thread (Alg2Options::slabs == 0).
constexpr unsigned kSlabsPerThread = 4;

}  // namespace

geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts,
                           Alg2Stats* stats) {
  const unsigned p = opts.slabs ? opts.slabs : kSlabsPerThread * pool.size();
  SlabRunner runner(kNames, pool, opts);
  obs::TraceSink* const sink = opts.trace_sink;
  obs::ScopedSpan setup_span(sink, "alg2.setup", obs::Cat::kPhase);

  // Steps 1-3: event ordinates, sorted, and the joint MBR.
  std::vector<double> ys;
  const std::size_t nverts = subject.num_vertices() + clip.num_vertices();
  ys.reserve(nverts);
  geom::BBox mbr;
  for (const auto* input : {&subject, &clip}) {
    for (const auto& c : input->contours) {
      for (const auto& pt : c.pts) {
        ys.push_back(pt.y);
        mbr.expand(pt);
      }
    }
  }
  if (ys.empty()) return runner.run({}, stats);  // no slabs: resets *stats
  par::parallel_sort(pool, ys);
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Slab boundaries between adjacent distinct event ordinates, so that no
  // input vertex lies exactly on a boundary (keeps the Greiner–Hormann
  // rectangle clipping in general position).
  const double margin = 0.5 * std::max(mbr.height(), 1e-9) * 1e-6 + 1e-12;
  const std::vector<double> bounds =
      slab_bounds(ys, mbr.ymin - margin, mbr.ymax + margin, p);
  const std::size_t nslabs = bounds.size() - 1;

  // Fused setup. Slab-overlap contour index: cache each contour's bbox in
  // one parallel pass, then build per-slab exact overlap lists so slab t
  // only ever reads its own contours.
  //
  // Then prepare every contour once, globally. Every prep step is
  // per-contour deterministic, so a slab copying a fragment gets bit for
  // bit what the materializing path's per-slab re-preparation would have
  // rebuilt. Also classify contours as *well-contained* (overlap exactly
  // one slab by original bbox AND the prepared bbox sits strictly inside
  // that slab's open interval — perturbation can push a vertex past a
  // boundary, and a boundary-touching contour is "inside" two slabs):
  // their schedule ys go into one shared globally merged y-schedule that
  // slab tasks slice instead of re-sorting, and the strict containment is
  // what makes the slice exact.
  struct FusedInput {
    const geom::PolygonSet& set;
    bool is_clip;
    std::vector<geom::BBox> boxes;
    SlabContourIndex idx;
    PreparedInput prep;
    std::vector<std::uint8_t> well;
  };
  FusedInput inputs[] = {{subject, false, {}, {}, {}, {}},
                         {clip, true, {}, {}, {}, {}}};
  std::vector<double> shared_ys;
  {
    obs::ScopedSpan prep_span(sink, "alg2.fused_prep", obs::Cat::kPhase);
    std::vector<std::size_t> runs{0};
    for (FusedInput& in : inputs) {
      const std::vector<geom::Contour>& contours = in.set.contours;
      in.boxes.resize(contours.size());
      pool.parallel_for(
          contours.size(),
          [&](std::size_t i) { in.boxes[i] = geom::bounds(contours[i]); },
          /*grain=*/64);
      in.idx = build_slab_index(pool, in.boxes, bounds);
      in.prep = prepare_input(
          pool, contours.size(),
          [&](std::size_t i) -> const geom::Contour& { return contours[i]; },
          in.is_clip, opts.prepared_cache);
      in.well.assign(contours.size(), 0);
      for (std::size_t i = 0; i < contours.size(); ++i) {
        const seq::PreparedContour* pc = in.prep.prep[i];
        if (!pc) continue;
        const SlabRange r =
            slab_range(in.boxes[i].ymin, in.boxes[i].ymax, bounds, nslabs);
        in.well[i] = r.single() && bounds[r.lo] < pc->box.ymin &&
                     pc->box.ymax < bounds[r.lo + 1];
        if (!in.well[i] || pc->ys.empty()) continue;
        shared_ys.insert(shared_ys.end(), pc->ys.begin(), pc->ys.end());
        runs.push_back(shared_ys.size());
      }
    }
    seq::merge_sorted_runs_unique(shared_ys, runs);
    prep_span.arg("shared_ys", static_cast<std::int64_t>(shared_ys.size()));
  }
  setup_span.end();
  runner.request_arg("slabs", static_cast<std::int64_t>(nslabs));
  runner.request_arg("vertices", static_cast<std::int64_t>(nverts));
  runner.request_arg("op", static_cast<std::int64_t>(op));

  // Steps 4-6 for one slab: rectangle-clip both inputs to the slab, then
  // run the sequential clipper on the slab pair.
  auto attempt = [&](std::size_t t, SlabArena* arena,
                     par::gov::ScopedCharge& charge, SlabWork& w) {
    obs::ScopedSpan part_span(sink, "alg2.slab_partition", obs::Cat::kPhase);
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    const geom::BBox rect{mbr.xmin - 1.0, bounds[t], mbr.xmax + 1.0,
                          bounds[t + 1]};
    geom::PolygonSet a_t, b_t;  // materialized slab inputs
    bool finite = true;
    if (arena) {
      // Healthy rung, fused: assemble the slab's bound table and scanbeam
      // schedule directly from the globally prepared fragments — no
      // intermediate slab polygon sets, no per-slab re-preparation, no
      // per-slab schedule sort. The ladder's next rung (kRetrySafe) is the
      // materializing broadcast path, byte-identical to this one.
      seq::BoundTable& bt = seq::scratch_bounds(arena->vatti);
      bt.edges.clear();
      bt.minima.clear();
      std::vector<double>& sched = seq::scratch_schedule(arena->vatti);
      sched.clear();
      arena->run_end.assign(1, 0);
      // Shared-schedule slice: every well-contained contour's ys lie
      // strictly inside its home slab's open interval, so the values in
      // (bounds[t], bounds[t+1]) are exactly this slab's share.
      const auto lo =
          std::upper_bound(shared_ys.begin(), shared_ys.end(), bounds[t]);
      const auto hi = std::lower_bound(lo, shared_ys.end(), bounds[t + 1]);
      sched.insert(sched.end(), lo, hi);
      arena->run_end.push_back(sched.size());
      seq::FusedClipStats fstats;
      for (const FusedInput& in : inputs) {
        const std::span<const SlabEntry> list = in.idx.slab(t);
        arena->refs.clear();
        arena->refs.reserve(list.size());
        for (const SlabEntry& e : list)
          arena->refs.push_back({in.prep.prep[e.contour],
                                 &in.set.contours[e.contour], e.inside,
                                 in.well[e.contour] != 0});
        if (!seq::clip_bounds_to_slab(arena->refs, rect, in.is_clip,
                                      &arena->rect, bt, sched, arena->run_end,
                                      &fstats))
          finite = false;
      }
      seq::sort_minima(bt);
      // The slab's bound table and schedule are fully assembled: raise the
      // attempt's budget charge to the arena watermark before committing to
      // the sweep (whose own per-beam checkpoint then charges output
      // growth).
      charge.raise_to(arena->resident_bytes());
      w.load.touched_edges = fstats.touched_edges;
      w.load.boundary_edges = fstats.boundary_edges;
      w.load.bound_build_ns = static_cast<std::int64_t>(timer.seconds() * 1e9);
      part_span.arg("boundary_edges", w.load.boundary_edges);
    } else {
      // kRetrySafe, materializing: the paper's broadcast partition on fresh
      // scratch (bit-identical to the fused path).
      a_t = seq::rect_clip(subject, rect);
      b_t = seq::rect_clip(clip, rect);
      w.load.touched_edges = static_cast<std::int64_t>(nverts);
      // Charge the materialized slab inputs (the structures this attempt
      // retains until it returns); the sweep's own checkpoint charges
      // output growth on top.
      charge.raise_to((a_t.num_vertices() + b_t.num_vertices()) *
                      sizeof(geom::Point));
      finite = geom::is_finite(a_t) && geom::is_finite(b_t);
    }
    w.partition_seconds = timer.seconds();
    w.partition_cpu = cpu_timer.seconds();
    part_span.arg("touched_edges", w.load.touched_edges);
    part_span.end();
    // Never hand a corrupted partition to the sweep: a NaN vertex can wedge
    // the event queue, not just skew the output.
    if (!finite)
      throw Error(ErrorCode::kNonFinite, "non-finite vertex in slab " +
                                             std::to_string(t) +
                                             " partition output");

    obs::ScopedSpan sweep_span(sink, "alg2.slab_sweep", obs::Cat::kPhase);
    timer.reset();
    cpu_timer.reset();
    seq::VattiStats vs;
    if (arena) {
      // One bottom-up merge of (shared slice, stray runs, piece runs) — the
      // same sorted distinct schedule either sweep kernel would have built
      // from this table — then the sweep.
      par::WallTimer sched_timer;
      seq::merge_sorted_runs_unique(seq::scratch_schedule(arena->vatti),
                                    arena->run_end);
      w.load.schedule_ns =
          static_cast<std::int64_t>(sched_timer.seconds() * 1e9);
      sweep_span.arg("schedule_ns", w.load.schedule_ns);
      w.result = seq::vatti_sweep_prepared(op, &vs, arena->vatti,
                                           opts.sweep_kernel,
                                           /*prebuilt_schedule=*/true);
    } else {
      w.result = seq::vatti_clip(a_t, b_t, op, &vs, nullptr,
                                 opts.sweep_kernel);
      w.load.bound_build_ns = vs.bound_build_ns;
      w.load.schedule_ns = vs.schedule_ns;
    }
    w.load.seconds = timer.seconds();
    w.load.cpu_seconds = cpu_timer.seconds();
    w.load.input_edges = vs.edges;
    w.load.output_vertices = vs.output_vertices;
    sweep_span.arg("input_edges", vs.edges);
    sweep_span.arg("output_vertices", vs.output_vertices);
  };

  SlabJob job;
  job.attempt = attempt;
  job.whole_input = [&] {
    return seq::vatti_clip(subject, clip, op, nullptr, nullptr,
                           opts.sweep_kernel);
  };
  for (std::size_t t = 0; t < nslabs; ++t)
    job.extents.emplace_back(bounds[t], bounds[t + 1]);
  // Step 8 (sequential in the paper) is plain concatenation: slab pieces
  // have disjoint interiors, so no duplicate removal.
  return runner.run(job, stats);
}

}  // namespace psclip::mt
