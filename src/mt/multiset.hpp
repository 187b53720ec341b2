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

/// How polygons are distributed over slabs in the two-sets clipper.
enum class MultisetAssign {
  /// Choose per operator: kSubjectOwner for intersection/difference,
  /// kBlockClosure for union/xor. Always exact.
  kAuto,
  /// Each *subject* polygon is owned by exactly one slab (the slab of its
  /// MBR midpoint); clip polygons are replicated into every slab whose
  /// subjects they can reach. Exact for intersection and difference of
  /// GIS-style layers (no within-layer overlap), no duplicate outputs,
  /// and no work replication — each pair is clipped exactly once.
  kSubjectOwner,
  /// The paper's scheme: replicate any polygon into every slab its MBR
  /// y-range overlaps, clip per slab, drop duplicate outputs. Exact for
  /// intersection; for union, clusters of polygons that span a slab
  /// boundary can merge with different partners in different slabs (the
  /// same implicit assumption the paper's union runs make).
  kReplicate,
  /// Replication extended transitively ("the local event list is
  /// readjusted such that no polygon is partially contained in a given
  /// slab"): slabs grow to whole blocks of chained MBR y-intervals.
  /// Exact for every operator, but chained data (interleaved layers,
  /// tiling polygons) can collapse many slabs into one block, limiting
  /// parallelism — the price of exact parallel union under replication.
  kBlockClosure,
};

const char* to_string(MultisetAssign a);

/// Options for the two-sets-of-polygons variant of Algorithm 2 (paper
/// §IV, last paragraph).
struct MultisetOptions {
  unsigned slabs = 0;  ///< 0 = pool thread count
  MultisetAssign assign = MultisetAssign::kAuto;
  /// Sweep kernel for the per-slab sequential clips (see seq::SweepKernel);
  /// both settings are byte-identical, kReference exists for ablations.
  seq::SweepKernel sweep_kernel = seq::SweepKernel::kTuned;
  /// Trace + metrics sink for this run; null (default) = tracing off at the
  /// cost of one pointer test per site. Same contract as
  /// Alg2Options::trace_sink.
  obs::TraceSink* trace_sink = nullptr;
  /// Request governance handle (DESIGN.md §11), same contract as
  /// Alg2Options::cancel: a null token governs nothing and inherits any
  /// token already installed on the calling thread.
  par::CancelToken cancel;
  /// Partial-result contract, same as Alg2Options::allow_partial: slabs
  /// abandoned by a governance trip report Rung::kPartialResult and are
  /// recorded in Alg2Stats::partial instead of failing the request.
  bool allow_partial = false;
  /// Cross-request prepared-contour source, same contract as
  /// Alg2Options::prepared_cache: null prepares locally; non-null fetches
  /// shared immutable fragments from the source during the fused setup.
  /// Byte-identical output either way.
  seq::PreparedSource* prepared_cache = nullptr;
};

/// Clip two *sets* of polygons (e.g. two GIS layers) — the paper's
/// Pthreads version: MBR y-extents form the event list, it is cut into
/// p slabs with roughly equal event counts, polygons are distributed to
/// slabs per `MultisetAssign` (replicated, never split), each slab pair
/// is clipped sequentially with the Vatti clipper, all slabs in parallel,
/// and redundant outputs from replicated pairs are removed afterwards.
///
/// Slab clipping is fused: every polygon is prepared (clean + coalesce +
/// perturb + bound decomposition + schedule run) once globally, and each
/// slab task concatenates the prepared fragments of its assigned polygons
/// straight into the worker arena's bound table — no per-slab contour
/// copies, no per-slab re-preparation, and the scanbeam schedule is a
/// linear run merge instead of a sort. A failed slab is retried once on
/// fresh scratch by materializing its polygons and running the ordinary
/// seq::vatti_clip, which rebuilds the same table bit for bit (replication
/// assigns whole polygons, never split), then the whole request falls back
/// to sequential Vatti.
///
/// Assumes layers in the GIS sense: polygons within one input do not
/// overlap each other (their union interiors are disjoint).
geom::PolygonSet multiset_clip(const geom::PolygonSet& subject,
                               const geom::PolygonSet& clip, geom::BoolOp op,
                               par::ThreadPool& pool,
                               const MultisetOptions& opts = {},
                               Alg2Stats* stats = nullptr);

}  // namespace psclip::mt
