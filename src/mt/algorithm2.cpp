#include "mt/algorithm2.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "error.hpp"
#include "mt/slab_index.hpp"
#include "mt/slab_runner.hpp"
#include "obs/trace.hpp"
#include "parallel/sort.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"
#include "seq/band.hpp"
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

  // Steps 1-2: event ordinates, sorted.
  std::vector<double> ys;
  const std::size_t nverts = subject.num_vertices() + clip.num_vertices();
  ys.reserve(nverts);
  for (const auto* input : {&subject, &clip})
    for (const auto& c : input->contours)
      for (const auto& pt : c.pts) ys.push_back(pt.y);
  if (ys.empty()) return runner.run({}, stats);  // no slabs: resets *stats
  par::parallel_sort(pool, ys);
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

  // Steps 3-4: slab cuts between adjacent distinct event ordinates, so no
  // input vertex lies on a cut. The outer slabs are open-ended bands (the
  // paper's MBR): perturbation can nudge a prepared vertex past the input's
  // extent, and an open band still holds it.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> cuts = slab_bounds(ys, -kInf, kInf, p);
  const std::size_t nslabs = cuts.size() - 1;

  // Prepare every contour once, globally, then index the slabs by
  // prepared extents (a perturbed vertex can cross a cut its original box
  // does not reach). The index's units are whole contours where a contour
  // lies in one slab, and single local minima (their two bounds) of every
  // contour that straddles a cut — so a slab visits only the bounds that
  // meet it, and partition work over all slabs stays O(n + k'). Every
  // prepared contour's ys go into one shared merged schedule; a slab's
  // share is exactly its slice strictly between its cuts, because every
  // contour with a vertex there overlaps the slab.
  struct Input {
    const geom::PolygonSet& set;
    bool is_clip;
    PreparedInput prep;
    std::vector<seq::BandRef> units;
    SlabContourIndex idx;  ///< over `units`
  };
  Input inputs[] = {{subject, false, {}, {}, {}}, {clip, true, {}, {}, {}}};
  std::vector<double> shared_ys;
  {
    obs::ScopedSpan prep_span(sink, "alg2.fused_prep", obs::Cat::kPhase);
    std::vector<std::size_t> runs{0};
    std::vector<geom::BBox> boxes;
    for (Input& in : inputs) {
      const std::vector<geom::Contour>& contours = in.set.contours;
      in.prep = prepare_input(
          pool, contours.size(),
          [&](std::size_t i) -> const geom::Contour& { return contours[i]; },
          in.is_clip, opts.prepared_cache);
      boxes.clear();
      for (const seq::PreparedContour* pc : in.prep.prep) {
        if (!pc) continue;
        if (!pc->finite ||
            slab_range(pc->box.ymin, pc->box.ymax, cuts, nslabs).single()) {
          in.units.push_back({pc, -1});
          boxes.push_back(pc->box);
        } else {
          for (std::size_t k = 0; k < pc->bt.minima.size(); ++k) {
            in.units.push_back({pc, static_cast<std::int32_t>(k)});
            boxes.push_back(seq::minimum_extent(*pc, k));
          }
        }
        if (!pc->finite) continue;  // its slabs fail; keep NaN out of merges
        shared_ys.insert(shared_ys.end(), pc->ys.begin(), pc->ys.end());
        runs.push_back(shared_ys.size());
      }
      in.idx = build_slab_index(pool, boxes, cuts);
    }
    seq::merge_sorted_runs_unique(shared_ys, runs);
    prep_span.arg("shared_ys", static_cast<std::int64_t>(shared_ys.size()));
  }
  setup_span.end();
  runner.request_arg("slabs", static_cast<std::int64_t>(nslabs));
  runner.request_arg("vertices", static_cast<std::int64_t>(nverts));
  runner.request_arg("op", static_cast<std::int64_t>(op));

  // Steps 5-6 for one slab: cut both inputs' prepared bounds to the band,
  // then sweep the open band with the sequential clipper.
  auto attempt = [&](std::size_t t, SlabArena* arena,
                     par::gov::ScopedCharge& charge, SlabWork& w) {
    obs::ScopedSpan part_span(sink, "alg2.slab_partition", obs::Cat::kPhase);
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    const seq::Band band{cuts[t], cuts[t + 1]};
    // kRetrySafe runs on fresh scratch and trusts none of the setup's
    // shared state (prepared fragments, cache, index, schedule): it
    // re-prepares every contour of both inputs, lists whole each one whose
    // prepared box meets the band, in input order, and merges the schedule
    // from their runs. Same table, same schedule, same bytes as the
    // healthy rung.
    std::optional<seq::VattiScratch> fresh;
    seq::VattiScratch& scratch = arena ? arena->vatti : fresh.emplace();
    std::vector<seq::BandRef> fresh_refs;
    std::vector<seq::BandRef>& refs = arena ? arena->refs : fresh_refs;
    std::vector<seq::PreparedContour> own[2];
    seq::BoundTable& bt = seq::scratch_bounds(scratch);
    bt.clear();
    std::vector<double>& sched = seq::scratch_schedule(scratch);
    sched.clear();
    std::vector<std::size_t> runs{0};  // retry: per-contour schedule runs
    // A sorted ys list's values strictly inside the band, as a run.
    const auto add_inner = [&](const std::vector<double>& v) {
      const auto lo = std::upper_bound(v.begin(), v.end(), band.lo);
      sched.insert(sched.end(), lo, std::lower_bound(lo, v.end(), band.hi));
      runs.push_back(sched.size());
    };
    std::int64_t touched = 0;
    for (int k = 0; k < 2; ++k) {
      const Input& in = inputs[k];
      refs.clear();
      if (arena) {
        for (const SlabEntry& e : in.idx.slab(t))
          refs.push_back(in.units[e.contour]);
      } else {
        seq::PreparedContour pc;
        for (const geom::Contour& c : in.set.contours) {
          if (seq::prepare_contour(c, in.is_clip, pc) &&
              pc.box.ymin <= band.hi && pc.box.ymax >= band.lo)
            own[k].push_back(std::move(pc));
        }
        for (const seq::PreparedContour& o : own[k]) {
          refs.push_back({&o, -1});
          if (o.finite) add_inner(o.ys);
        }
      }
      // Never hand a corrupted partition to the sweep: a NaN vertex can
      // wedge the event queue, not just skew the output.
      if (!seq::build_band(refs, band, bt, &touched))
        throw Error(ErrorCode::kNonFinite, "non-finite vertex in slab " +
                                               std::to_string(t) +
                                               " partition output");
    }
    seq::sort_minima(bt);
    w.load.bound_build_ns = static_cast<std::int64_t>(timer.seconds() * 1e9);
    // Schedule: the band's finite ends are the sweep's first and last
    // scanlines; between them, the shared schedule's slice (healthy) or
    // the merged runs (retry) — the same values.
    par::WallTimer sched_timer;
    if (arena) add_inner(shared_ys);
    seq::merge_sorted_runs_unique(sched, runs);
    if (band.lo > -kInf) sched.insert(sched.begin(), band.lo);
    if (band.hi < kInf) sched.push_back(band.hi);
    w.load.schedule_ns =
        static_cast<std::int64_t>(sched_timer.seconds() * 1e9);
    // The slab's bound table and schedule are fully assembled: raise the
    // attempt's budget charge to the scratch watermark before committing to
    // the sweep (whose own per-beam checkpoint then charges output growth).
    std::size_t retry_bytes = 0;
    for (const auto& list : own)
      for (const seq::PreparedContour& o : list)
        retry_bytes += o.pts.size() * sizeof(geom::Point) +
                       o.bt.edges.size() * sizeof(seq::BoundEdge) +
                       o.ys.size() * sizeof(double);
    charge.raise_to(arena ? arena->resident_bytes()
                          : scratch.resident_bytes() + retry_bytes);
    w.load.touched_edges = arena ? touched : static_cast<std::int64_t>(nverts);
    w.partition_seconds = timer.seconds();
    w.partition_cpu = cpu_timer.seconds();
    part_span.arg("touched_edges", w.load.touched_edges);
    part_span.end();

    obs::ScopedSpan sweep_span(sink, "alg2.slab_sweep", obs::Cat::kPhase);
    timer.reset();
    cpu_timer.reset();
    seq::VattiStats vs;
    w.result = seq::vatti_sweep_prepared(op, &vs, scratch, opts.sweep_kernel,
                                         /*prebuilt_schedule=*/true);
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
  // A partial report names each missing strip for re-issue, so the open
  // outer bands are reported closed at the inputs' y-extent plus a margin.
  const double margin =
      0.5 * std::max(ys.back() - ys.front(), 1e-9) * 1e-6 + 1e-12;
  for (std::size_t t = 0; t < nslabs; ++t)
    job.extents.emplace_back(std::max(cuts[t], ys.front() - margin),
                             std::min(cuts[t + 1], ys.back() + margin));
  // Step 8 (sequential in the paper) is plain concatenation: slab pieces
  // have disjoint interiors, so no duplicate removal.
  return runner.run(job, stats);
}

}  // namespace psclip::mt
