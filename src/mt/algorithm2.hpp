#pragma once

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"
#include "mt/stats.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/vatti.hpp"

namespace psclip::obs {
class TraceSink;
}
namespace psclip::seq {
class PreparedSource;
}

namespace psclip::mt {

/// Options for the multi-threaded slab clipper (Algorithm 2).
struct Alg2Options {
  /// Number of horizontal slabs (the paper uses one per thread). 0 = derive
  /// from the pool: 4 × pool.size(). The slab jobs are scheduled on the
  /// pool's work-stealing deques, so idle workers steal queued slabs from
  /// busy ones; the paper's static one-slab-per-thread decomposition
  /// (`slabs = pool.size()`) leaves workers idle while the heaviest slab
  /// finishes (Fig. 11), and four slabs per thread trade a little extra
  /// rectangle clipping for a much tighter per-worker load distribution.
  /// The slab decomposition — and therefore the output — depends only on
  /// the slab count, never on scheduling order.
  unsigned slabs = 0;
  /// Per-beam maintenance strategy of the sequential Vatti sweep that runs
  /// inside every slab (see seq::SweepKernel). Both settings produce
  /// byte-identical output; kReference reproduces the pre-optimization cost
  /// profile and exists for the bench_sweep_kernel ablation and the
  /// kernel-identity tests.
  seq::SweepKernel sweep_kernel = seq::SweepKernel::kTuned;
  /// Trace + metrics sink for this run (see obs/trace.hpp). Null — the
  /// default — is the null sink: every instrumentation site collapses to
  /// one pointer test, the same "free when off" discipline as the
  /// fault.hpp injection sites. Non-null: the run records a
  /// request → phase → slab → rung span hierarchy (slab spans carry slab
  /// id, executing worker, degradation rung and attempt count; the clip
  /// phase span carries the steal totals) plus alg2.* counters and latency
  /// histograms. The sink must outlive the call and be thread-safe
  /// (obs::TraceRecorder is).
  obs::TraceSink* trace_sink = nullptr;
  /// Request governance handle (DESIGN.md §11): cancel flag, deadline and
  /// memory budget checked at cooperative checkpoints throughout the run —
  /// phase boundaries, slab-attempt entries, parallel_for chunk boundaries
  /// and every scanbeam of the sweep. A default (null) token governs
  /// nothing and costs one null check per checkpoint; when slab_clip is
  /// called with a token already installed on the thread (psclip::clip
  /// facade), leaving this null inherits it.
  par::CancelToken cancel;
  /// Partial-result contract: when a slab is abandoned because the
  /// request's deadline, budget or cancellation tripped, return the
  /// completed slabs instead of failing the whole request. Abandoned slabs
  /// report Rung::kPartialResult and Alg2Stats::partial names the missing
  /// slab index ranges and their y-extents. Off (default): the first
  /// governance trip propagates out of slab_clip as its precise Error
  /// (kCancelled / kDeadlineExceeded / kBudgetExceeded).
  bool allow_partial = false;
  /// Cross-request prepared-contour source (svc::PreparedCache). Null — the
  /// default — prepares every contour locally inside this call, exactly the
  /// pre-cache behavior. Non-null: the kFused setup fetches each contour's
  /// prepared fragment from the source instead (a hit skips the whole
  /// clean + coalesce + perturb + bound-decomposition pass), holding the
  /// returned shared fragments alive for the duration of the run. Because
  /// prepare_contour is a pure per-contour function of the contour bytes,
  /// output is byte-identical with the cache on, off, hitting or missing.
  /// The source must be thread-safe and outlive the call.
  seq::PreparedSource* prepared_cache = nullptr;
};

/// The paper's Algorithm 2 for a pair of arbitrary polygons (also accepts
/// multi-contour inputs):
///
///   1–2  collect and sort the distinct vertex ordinates,
///   3    compute the minimum bounding rectangle of A ∪ B,
///   4–5  cut both inputs into p horizontal slabs with (nearly) equal
///        event-point counts; slab boundaries are placed *between*
///        adjacent event ordinates so no vertex lies on a boundary, and
///        rectangle-clip the contours that straddle a boundary with
///        Greiner–Hormann (the paper's choice over GPC for this step),
///   6    clip each slab pair with the sequential Vatti clipper
///        (our GPC stand-in), all slabs in parallel,
///   8    concatenate the per-slab outputs (the paper's sequential merge:
///        pieces have disjoint interiors, so concatenation is the even-odd
///        union; contours crossing slab boundaries remain split, exactly
///        as in the paper).
///
/// Steps 4–5 run fused (DESIGN.md §10): every contour is prepared once
/// globally, a slab-overlap contour index gives each slab its contours, and
/// the slab's bound table is assembled from their prepared fragments, with
/// straddlers rectangle-clipped at the bound level. A failed slab is retried
/// once on fresh scratch through the materializing path — the paper's
/// broadcast partition (seq::rect_clip of both whole inputs, then
/// seq::vatti_clip), byte-identical to the fused one — then the whole
/// request falls back to sequential Vatti (see mt::Rung,
/// Alg2Stats::degradation).
geom::PolygonSet slab_clip(const geom::PolygonSet& subject,
                           const geom::PolygonSet& clip, geom::BoolOp op,
                           par::ThreadPool& pool, const Alg2Options& opts = {},
                           Alg2Stats* stats = nullptr);

}  // namespace psclip::mt
