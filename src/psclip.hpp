#pragma once

/// psclip — output-sensitive parallel polygon clipping.
///
/// Umbrella header: include this to get the whole public API. The library
/// reproduces Puri & Prasad, "Output-Sensitive Parallel Algorithm for
/// Polygon Clipping" (ICPP 2014); see README.md and DESIGN.md.
///
/// Quick map:
///   psclip::clip(a, b, op [, engine])   one-call facade (below)
///   seq::vatti_clip                     sequential scanline clipper
///   seq::martinez_clip                  independent x-sweep clipper
///   core::scanbeam_clip                 the paper's parallel Algorithm 1
///   mt::slab_clip / mt::multiset_clip   the paper's Algorithm 2

#include <optional>
#include <utility>

#include "core/algorithm1.hpp"
#include "error.hpp"
#include "geom/area_oracle.hpp"
#include "geom/bool_op.hpp"
#include "geom/geojson.hpp"
#include "geom/nesting.hpp"
#include "geom/perturb.hpp"
#include "geom/point_in_polygon.hpp"
#include "geom/polygon.hpp"
#include "geom/sanitize.hpp"
#include "geom/svg.hpp"
#include "geom/validate.hpp"
#include "geom/wkt.hpp"
#include "mt/algorithm2.hpp"
#include "mt/multiset.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/bounds.hpp"
#include "seq/greiner_hormann.hpp"
#include "seq/liang_barsky.hpp"
#include "seq/martinez.hpp"
#include "seq/rect_clip.hpp"
#include "seq/sutherland_hodgman.hpp"
#include "seq/vatti.hpp"

namespace psclip {

/// Which implementation the clip() facade dispatches to.
enum class Engine {
  kAuto,       ///< sequential for small inputs, Algorithm 2 for large ones
  kVatti,      ///< sequential scanline clipper
  kMartinez,   ///< sequential x-sweep clipper
  kScanbeam,   ///< parallel Algorithm 1 (paper's PRAM algorithm)
  kSlab,       ///< parallel Algorithm 2 (paper's practical algorithm)
};

/// Request-governance options for the governed clip() overload.
struct ClipOptions {
  Engine engine = Engine::kAuto;
  /// Deadline / memory-budget / cancellation token (DESIGN.md §11). Null
  /// (default) governs nothing. Installed for the whole request: the
  /// parallel engines propagate it to every worker, and the sequential
  /// engines inherit it through the thread-local governance state (the
  /// Vatti sweep checks every scanbeam; Martinez checks at entry only).
  par::CancelToken cancel;
  /// Parallel slab engine only: return the completed slabs instead of
  /// failing when `cancel` trips mid-run (see Alg2Options::allow_partial).
  /// Sequential engines have no partial contract — they fail precisely.
  bool allow_partial = false;
  /// Out-parameter: when non-null, receives the run's partial-result
  /// report (PartialReport::partial == false for every complete result).
  mt::PartialReport* partial = nullptr;
  /// Thread pool for the parallel engines AND the kAuto selection's thread
  /// count. Null (default) = the process-wide par::default_pool(). A
  /// serving layer passes its own pool so every request — and the byte-
  /// identical serial reference recomputation of a request — runs on the
  /// same decomposition (slab count derives from pool size).
  par::ThreadPool* pool = nullptr;
  /// Trace + metrics sink for this call. Null (default) = the process-wide
  /// obs::global_sink(), the pre-existing behavior; a serving layer passes
  /// its per-service (or per-request) recorder here.
  obs::TraceSink* trace_sink = nullptr;
  /// Cross-request prepared-contour cache for the slab engine (see
  /// Alg2Options::prepared_cache). Null = prepare locally. Byte-identical
  /// output either way.
  seq::PreparedSource* prepared_cache = nullptr;
};

/// Vertex-count threshold at which kAuto hands a clip to the parallel slab
/// engine. Alternating vatti_clip / slab_clip pairs on blob pairs and
/// polygon fields, 4k to 24k vertices, on 2-, 3- and 4-thread pools (the
/// 2- and 3-thread runs pinned to as many CPUs; EXPERIMENTS.md, "Output-
/// sensitive slab partition"): the slab engine won at least 9 of 10 pairs
/// at every pool size from 6k vertices up, and tied 5 of 10 once at 4k on
/// two CPUs. 8000 keeps one measured size of margin over that tie. Exposed
/// so the facade tests pin the boundary.
inline constexpr std::size_t kAutoSlabMinVertices = 8000;

/// Resolve the engine a clip of `total_vertices` input vertices will run
/// on, given the executing pool's thread count. Pure function of its
/// arguments — the facade and svc::ClipService both dispatch through it,
/// which is what makes a service result reproducible by a serial
/// psclip::clip call with the same pool. Never returns kAuto: kAuto picks
/// kSlab once the input amortizes partitioning AND the pool can actually
/// run slabs in parallel (> 1 thread), else the sequential Vatti clipper.
[[nodiscard]] constexpr Engine resolve_engine(Engine requested,
                                              std::size_t total_vertices,
                                              std::size_t pool_threads) {
  if (requested != Engine::kAuto) return requested;
  return total_vertices >= kAutoSlabMinVertices && pool_threads > 1
             ? Engine::kSlab
             : Engine::kVatti;
}

/// One-call general polygon clipping with request governance. Even-odd
/// semantics, arbitrary inputs (see README "Semantics and contract").
/// Parallel engines use the process-wide default thread pool. When a
/// process-wide trace sink is installed (obs::set_global_sink), the call
/// records a psclip.clip request span and the parallel engines trace their
/// phase/slab/rung breakdown into the same sink.
inline geom::PolygonSet clip(const geom::PolygonSet& subject,
                             const geom::PolygonSet& clip_poly,
                             geom::BoolOp op, const ClipOptions& copts) {
  obs::TraceSink* const sink =
      copts.trace_sink ? copts.trace_sink : obs::global_sink();
  par::ThreadPool& pool = copts.pool ? *copts.pool : par::default_pool();
  obs::ScopedSpan req_span(sink, "psclip.clip", obs::Cat::kRequest);
  // Install the token for the whole request; a request that is already
  // cancelled or past its deadline does no work at all.
  std::optional<par::gov::ScopedToken> gov_scope;
  if (copts.cancel.valid()) gov_scope.emplace(copts.cancel);
  par::gov::checkpoint_now();
  if (copts.partial) *copts.partial = mt::PartialReport{};
  const std::size_t n = subject.num_vertices() + clip_poly.num_vertices();
  switch (resolve_engine(copts.engine, n, pool.size())) {
    case Engine::kVatti:
      return seq::vatti_clip(subject, clip_poly, op);
    case Engine::kMartinez:
      return seq::martinez_clip(subject, clip_poly, op);
    case Engine::kScanbeam: {
      core::Alg1Options opts;
      opts.trace_sink = sink;
      return core::scanbeam_clip(subject, clip_poly, op, pool, nullptr, opts);
    }
    case Engine::kSlab:
    case Engine::kAuto:  // resolve_engine never returns kAuto
      break;
  }
  mt::Alg2Options opts;
  opts.trace_sink = sink;
  opts.cancel = copts.cancel;
  opts.allow_partial = copts.allow_partial;
  opts.prepared_cache = copts.prepared_cache;
  mt::Alg2Stats stats;
  geom::PolygonSet out = mt::slab_clip(subject, clip_poly, op, pool, opts,
                                       copts.partial ? &stats : nullptr);
  if (copts.partial) *copts.partial = std::move(stats.partial);
  return out;
}

/// Ungoverned convenience form: clip(a, b, op [, engine]).
inline geom::PolygonSet clip(const geom::PolygonSet& subject,
                             const geom::PolygonSet& clip_poly,
                             geom::BoolOp op, Engine engine = Engine::kAuto) {
  ClipOptions copts;
  copts.engine = engine;
  return clip(subject, clip_poly, op, copts);
}

}  // namespace psclip
