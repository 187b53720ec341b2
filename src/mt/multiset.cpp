#include "mt/multiset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

constexpr EngineNames kNames{"multiset", "alg2.multiset_clip",
                             "multiset.clip", "multiset.slab",
                             "multiset.merge"};

struct PolyRec {
  const geom::Contour* contour;
  double ymin, ymax;
};

std::vector<PolyRec> records(const geom::PolygonSet& p) {
  std::vector<PolyRec> recs;
  recs.reserve(p.num_contours());
  for (const auto& c : p.contours) {
    const geom::BBox b = geom::bounds(c);
    if (b.empty()) continue;
    recs.push_back({&c, b.ymin, b.ymax});
  }
  return recs;
}

/// Descriptor for duplicate elimination: replicated pairs produce the same
/// output region in every slab containing all their generators;
/// coordinates can differ by perturbation noise, so matching is tolerant.
struct ContourSig {
  std::size_t index;
  std::size_t nverts;
  double area, cx, cy;
};

/// Remove replicated duplicates from `merged` in place; returns how many.
std::int64_t drop_duplicates(geom::PolygonSet& merged) {
  std::vector<ContourSig> sigs;
  sigs.reserve(merged.num_contours());
  for (std::size_t i = 0; i < merged.contours.size(); ++i) {
    const geom::Contour& c = merged.contours[i];
    ContourSig sig{i, c.size(), std::fabs(geom::signed_area(c)), 0.0, 0.0};
    for (const auto& pt : c.pts) {
      sig.cx += pt.x;
      sig.cy += pt.y;
    }
    sig.cx /= static_cast<double>(c.size());
    sig.cy /= static_cast<double>(c.size());
    sigs.push_back(sig);
  }
  std::sort(sigs.begin(), sigs.end(),
            [](const ContourSig& a, const ContourSig& b) {
              if (a.nverts != b.nverts) return a.nverts < b.nverts;
              return a.area < b.area;
            });
  std::vector<std::uint8_t> drop(merged.contours.size(), 0);
  std::int64_t dups = 0;
  const double eps = 1e-7;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (drop[sigs[i].index]) continue;
    for (std::size_t j = i + 1; j < sigs.size(); ++j) {
      if (sigs[j].nverts != sigs[i].nverts) break;
      if (sigs[j].area - sigs[i].area > eps * (1.0 + std::fabs(sigs[i].area)))
        break;
      if (drop[sigs[j].index]) continue;
      const bool same =
          std::fabs(sigs[j].cx - sigs[i].cx) <=
              eps * (1.0 + std::fabs(sigs[i].cx)) &&
          std::fabs(sigs[j].cy - sigs[i].cy) <=
              eps * (1.0 + std::fabs(sigs[i].cy));
      if (same) {
        drop[sigs[j].index] = 1;
        ++dups;
      }
    }
  }
  geom::PolygonSet out;
  for (std::size_t i = 0; i < merged.contours.size(); ++i)
    if (!drop[i]) out.contours.push_back(std::move(merged.contours[i]));
  merged = std::move(out);
  return dups;
}

}  // namespace

const char* to_string(MultisetAssign a) {
  switch (a) {
    case MultisetAssign::kAuto: return "auto";
    case MultisetAssign::kSubjectOwner: return "subject-owner";
    case MultisetAssign::kReplicate: return "replicate";
    case MultisetAssign::kBlockClosure: return "block-closure";
  }
  return "?";
}

geom::PolygonSet multiset_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool,
                               const MultisetOptions& opts,
                               Alg2Stats* stats) {
  const unsigned p = opts.slabs ? opts.slabs : pool.size();
  const bool owner_exact =
      op == geom::BoolOp::kIntersection || op == geom::BoolOp::kDifference;
  const MultisetAssign mode =
      opts.assign != MultisetAssign::kAuto ? opts.assign
      : owner_exact                        ? MultisetAssign::kSubjectOwner
                                           : MultisetAssign::kBlockClosure;
  SlabRunner runner(kNames, pool, opts);
  obs::TraceSink* const sink = opts.trace_sink;
  obs::ScopedSpan events_span(sink, "multiset.events", obs::Cat::kPhase);

  // The two layers: polygon records, per-task id lists, fused fragments.
  struct Layer {
    std::vector<PolyRec> recs;
    bool is_clip;
    std::vector<std::vector<std::uint32_t>> slab_ids;
    PreparedInput prep;
  };
  Layer layers[] = {{records(subject), false, {}, {}},
                    {records(clip), true, {}, {}}};
  const std::vector<PolyRec>& srecs = layers[0].recs;
  const std::vector<PolyRec>& crecs = layers[1].recs;

  // Event list: both y-extents of every polygon MBR (paper §IV).
  std::vector<double> events;
  events.reserve(2 * (srecs.size() + crecs.size()));
  for (const Layer& l : layers)
    for (const PolyRec& r : l.recs) {
      events.push_back(r.ymin);
      events.push_back(r.ymax);
    }
  if (events.empty()) return runner.run({}, stats);  // resets *stats
  par::parallel_sort(pool, events);

  // Slab boundaries at equal event counts, between adjacent events.
  const std::vector<double> bounds =
      slab_bounds(events, events.front() - 1.0, events.back() + 1.0, p);
  const std::size_t nslabs = bounds.size() - 1;
  events_span.arg("events", static_cast<std::int64_t>(events.size()));
  events_span.arg("slabs", static_cast<std::int64_t>(nslabs));
  events_span.end();
  runner.request_arg("polygons",
                     static_cast<std::int64_t>(srecs.size() + crecs.size()));
  runner.request_arg("op", static_cast<std::int64_t>(op));
  obs::ScopedSpan assign_span(sink, "multiset.assign", obs::Cat::kPhase);

  // ---- Distribute polygons to slabs per the assignment mode. ----
  // Slabs hold *record-id lists* (indices into srecs/crecs), not contour
  // copies: replication assigns whole polygons, so an index is all a slab
  // needs. The materializing path rebuilds a slab's PolygonSets from these
  // lists on demand.
  auto& slab_subject = layers[0].slab_ids;
  auto& slab_clip_in = layers[1].slab_ids;
  // y-extent of every slab task. Block closure merges slabs into blocks,
  // so the extent list is per *task*, not per decomposition slab.
  std::vector<std::pair<double, double>> extents;
  for (std::size_t t = 0; t < nslabs; ++t)
    extents.emplace_back(bounds[t], bounds[t + 1]);
  // Ids of the records whose MBR y-range overlaps [lo, hi].
  auto overlapping = [](const std::vector<PolyRec>& recs, double lo,
                        double hi, std::vector<std::uint32_t>& ids) {
    for (std::size_t i = 0; i < recs.size(); ++i)
      if (recs[i].ymin <= hi && recs[i].ymax >= lo)
        ids.push_back(static_cast<std::uint32_t>(i));
  };

  if (mode == MultisetAssign::kBlockClosure) {
    // Merge MBR y-intervals into maximal blocks (transitive overlap),
    // extend each slab to whole blocks, and drop slabs whose closure
    // duplicates the previous one. Interacting groups are always fully
    // inside every slab that sees part of them, so per-slab outputs of
    // replicated groups are identical and dedup is exact for any op.
    std::vector<std::pair<double, double>> iv, blocks;
    iv.reserve(srecs.size() + crecs.size());
    for (const Layer& l : layers)
      for (const PolyRec& r : l.recs) iv.emplace_back(r.ymin, r.ymax);
    std::sort(iv.begin(), iv.end());
    for (const auto& [lo, hi] : iv) {
      if (!blocks.empty() && lo <= blocks.back().second)
        blocks.back().second = std::max(blocks.back().second, hi);
      else
        blocks.emplace_back(lo, hi);
    }
    std::vector<std::pair<double, double>> closed;
    for (const auto& [lo, hi] : extents) {
      auto it = std::lower_bound(
          blocks.begin(), blocks.end(), lo,
          [](const std::pair<double, double>& b, double v) {
            return b.second < v;
          });
      std::pair<double, double> cl{lo, hi};
      if (it != blocks.end() && it->first <= hi)
        cl.first = std::min(cl.first, it->first);
      for (; it != blocks.end() && it->first <= hi; ++it)
        cl.second = std::max(cl.second, it->second);
      if (closed.empty() || closed.back() != cl) closed.push_back(cl);
    }
    extents = std::move(closed);
  }
  slab_subject.resize(extents.size());
  slab_clip_in.resize(extents.size());
  // Replication (kReplicate, the paper's scheme, and kBlockClosure) puts
  // both layers into every task whose extent their MBR y-range overlaps.
  // Under kSubjectOwner each subject polygon goes to exactly one slab (the
  // one holding its MBR midpoint) and the clip polygons it can interact
  // with are replicated into that slab: every subject, and so every
  // interacting pair, is clipped exactly once.
  const bool owner = mode == MultisetAssign::kSubjectOwner;
  std::vector<std::pair<double, double>> reach = extents;
  if (owner) {
    std::fill(reach.begin(), reach.end(),
              std::pair{std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()});
    for (std::size_t i = 0; i < srecs.size(); ++i) {
      const PolyRec& r = srecs[i];
      const double mid = 0.5 * (r.ymin + r.ymax);
      const auto above = static_cast<std::size_t>(
          std::upper_bound(bounds.begin(), bounds.end(), mid) -
          bounds.begin());
      const std::size_t t = std::min(above > 0 ? above - 1 : 0, nslabs - 1);
      slab_subject[t].push_back(static_cast<std::uint32_t>(i));
      reach[t].first = std::min(reach[t].first, r.ymin);
      reach[t].second = std::max(reach[t].second, r.ymax);
    }
  }
  pool.parallel_for(
      extents.size(),
      [&](std::size_t t) {
        if (!owner)
          overlapping(srecs, extents[t].first, extents[t].second,
                      slab_subject[t]);
        overlapping(crecs, reach[t].first, reach[t].second, slab_clip_in[t]);
      },
      /*grain=*/1);
  par::gov::checkpoint_now();

  // ---- Fused setup: prepare every polygon once, globally. ----
  // Each record gets its clean + coalesce + perturb + bound-decomposition
  // pass exactly once, no matter how many slabs replicate it; slab tasks
  // then concatenate the prepared fragments. Every prep step is
  // per-contour deterministic, so a fragment copy is bit for bit what a
  // materializing vatti_clip would have rebuilt inside the slab.
  {
    obs::ScopedSpan prep_span(sink, "multiset.fused_prep", obs::Cat::kPhase);
    for (Layer& l : layers)
      l.prep = prepare_input(
          pool, l.recs.size(),
          [&](std::size_t i) -> const geom::Contour& {
            return *l.recs[i].contour;
          },
          l.is_clip, opts.prepared_cache);
  }
  assign_span.arg("slab_tasks", static_cast<std::int64_t>(extents.size()));
  assign_span.end();

  // ---- Per-slab sequential clipping, all slabs in parallel. ----
  // One attempt at one slab. The slab id lists are immutable during the
  // clip phase, so a retry simply re-reads them.
  //
  // Healthy rung, fused: a slab holds whole polygons, so every one is an
  // *inside* contour of the slab — clip_bounds_to_slab concatenates their
  // prepared bound fragments into the arena's bound table and their
  // schedule ys as runs, and the sweep follows: no contour copies, no
  // re-preparation, no schedule sort. kRetrySafe materializes the slab's
  // PolygonSets from the id lists and runs the ordinary vatti_clip on fresh
  // scratch, which rebuilds the same table bit for bit (per-contour
  // deterministic prep).
  auto attempt = [&](std::size_t t, SlabArena* arena,
                     par::gov::ScopedCharge& charge, SlabWork& w) {
    par::WallTimer timer;
    par::ThreadCpuTimer cpu_timer;
    seq::VattiStats vs;
    if (arena) {
      seq::BoundTable& bt = seq::scratch_bounds(arena->vatti);
      bt.edges.clear();
      bt.minima.clear();
      std::vector<double>& ys = seq::scratch_schedule(arena->vatti);
      ys.clear();
      arena->run_end.assign(1, 0);
      seq::FusedClipStats fstats;
      bool finite = true;
      for (const Layer& l : layers) {
        arena->refs.clear();
        for (const std::uint32_t id : l.slab_ids[t])
          arena->refs.push_back({l.prep.prep[id], l.recs[id].contour,
                                 /*inside=*/true, /*in_shared=*/false});
        if (!seq::clip_bounds_to_slab(arena->refs, geom::BBox{}, l.is_clip,
                                      &arena->rect, bt, ys, arena->run_end,
                                      &fstats))
          finite = false;
      }
      seq::sort_minima(bt);
      charge.raise_to(arena->resident_bytes());
      w.load.touched_edges = fstats.touched_edges;
      w.load.bound_build_ns = static_cast<std::int64_t>(timer.seconds() * 1e9);
      if (!finite)
        throw Error(ErrorCode::kNonFinite,
                    "non-finite vertex in multiset slab " +
                        std::to_string(t) + " input");
      par::WallTimer sched_timer;
      seq::merge_sorted_runs_unique(ys, arena->run_end);
      w.load.schedule_ns =
          static_cast<std::int64_t>(sched_timer.seconds() * 1e9);
      w.result = seq::vatti_sweep_prepared(op, &vs, arena->vatti,
                                           opts.sweep_kernel,
                                           /*prebuilt_schedule=*/true);
    } else {
      geom::PolygonSet in[2];
      for (int k = 0; k < 2; ++k) {
        in[k].contours.reserve(layers[k].slab_ids[t].size());
        for (const std::uint32_t id : layers[k].slab_ids[t])
          in[k].contours.push_back(*layers[k].recs[id].contour);
      }
      const std::size_t verts = in[0].num_vertices() + in[1].num_vertices();
      charge.raise_to(verts * sizeof(geom::Point));
      w.load.touched_edges = static_cast<std::int64_t>(verts);
      w.result = seq::vatti_clip(in[0], in[1], op, &vs, nullptr,
                                 opts.sweep_kernel);
      w.load.bound_build_ns = vs.bound_build_ns;
      w.load.schedule_ns = vs.schedule_ns;
    }
    w.load.seconds = timer.seconds();
    w.load.cpu_seconds = cpu_timer.seconds();
    w.load.input_edges = vs.edges;
    w.load.output_vertices = vs.output_vertices;
  };

  SlabJob job;
  job.extents = std::move(extents);
  job.attempt = attempt;
  job.whole_input = [&] {
    return seq::vatti_clip(subject, clip, op, nullptr, nullptr,
                           opts.sweep_kernel);
  };
  // Post-processing: replicated pairs produce the same output in every
  // slab that holds them; keep one copy.
  if (!owner) job.dedup = drop_duplicates;
  return runner.run(job, stats);
}

}  // namespace psclip::mt
