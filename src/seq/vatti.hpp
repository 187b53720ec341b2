#pragma once

#include <cstdint>
#include <memory>

#include "geom/bool_op.hpp"
#include "geom/polygon.hpp"

namespace psclip::seq {

/// Counters reported by the sweep, used by tests and by the benchmark
/// harness (they correspond to the quantities n, k, m in the paper's
/// complexity analysis).
struct VattiStats {
  std::int64_t scanbeams = 0;       ///< m: number of scanbeams processed
  std::int64_t edges = 0;           ///< n: bound edges from both inputs
  std::int64_t intersections = 0;   ///< k: pairwise edge crossings handled
  std::int64_t output_vertices = 0; ///< vertices in the result contours
  std::int64_t max_aet = 0;         ///< peak active edge table size
  /// Beams whose AET was already in top-scanline x-order (no crossings):
  /// the cache-conscious kernel detects this in one O(|AET|) scan and skips
  /// the whole intersection machinery. The counter is maintained by both
  /// kernels (the reference kernel pays the full path regardless), so the
  /// hit rate is comparable across them.
  std::int64_t sorted_beams = 0;
  /// Suffix refreshes of the flat edge-id -> AET-index position array
  /// (tuned kernel only; one per structural AET edit batch, i.e. per
  /// minima merge and per local-maximum removal). The pre-PR kernel
  /// instead rebuilt a hash map once per beam with crossings.
  std::int64_t pos_rebuilds = 0;
  /// AET invariant violations seen by the validation hook (see
  /// VattiScratch::validate). Always 0 on a correct sweep; tests run the
  /// whole fuzz corpus with validation forced on and assert it stays 0.
  std::int64_t validate_failures = 0;
  /// Nanoseconds spent preparing contours and building the bound table
  /// (clean + coalesce + perturb + bound decomposition + minima sort).
  /// Zero from vatti_sweep_prepared, whose caller built the table (the
  /// slab engines prepare every contour once globally and report their
  /// per-slab table assembly in SlabLoad::bound_build_ns instead).
  std::int64_t bound_build_ns = 0;
  /// Nanoseconds spent building the scanbeam schedule. Zero when the
  /// caller supplied a prebuilt schedule (vatti_sweep_prepared with
  /// prebuilt_schedule=true: slab_clip slices one shared schedule instead
  /// of sorting per slab).
  std::int64_t schedule_ns = 0;
};

/// Which per-beam maintenance strategy the sweep uses. Both produce
/// byte-identical output on every input (asserted across the fuzz corpus);
/// kReference reproduces the pre-optimization cost profile and exists for
/// the bench_sweep_kernel ablation gate and the identity tests.
enum class SweepKernel : std::uint8_t {
  /// Cache-conscious kernel (default): flat position index maintained
  /// incrementally, O(|AET|) already-sorted beam detection, batched
  /// local-minima insertion via one merge pass, SoA beam-local x arrays
  /// rolled over with an O(1) swap, and a scanbeam schedule built by
  /// k-way merging the per-bound sorted y-lists.
  kTuned = 0,
  /// Pre-PR maintenance strategy: per-beam std::unordered_map position
  /// rebuild, one O(|AET|) mid-vector insert per local minimum, no sorted
  /// fast path, per-entry x copy at beam end, sort+unique schedule.
  kReference,
};

/// Reusable scratch for vatti_clip: the active edge table, the per-scanbeam
/// intersection-event buffers, the bound table and the scanbeam schedule
/// all live here and are cleared — capacity retained — instead of being
/// reallocated on every call (and, for the per-beam buffers, on every
/// scanbeam). A slab-arena worker keeps one VattiScratch alive across all
/// the slab tasks it executes; without it the per-slab allocation churn
/// dominates many-slab/oversubscribed Algorithm 2 runs.
///
/// Owned by exactly one thread at a time; reuse never changes results
/// (cleared buffers are indistinguishable from fresh ones).
struct VattiScratch {
  VattiScratch();
  ~VattiScratch();
  VattiScratch(VattiScratch&&) noexcept;
  VattiScratch& operator=(VattiScratch&&) noexcept;

  std::uint64_t runs = 0;  ///< vatti_clip calls that reused this scratch

  /// AET invariant checker (parity flags must equal the accumulated flips
  /// to the left; the AET must be x-ordered at every scanline). Violations
  /// print to stderr and count into VattiStats::validate_failures.
  ///   -1  inherit the PSCLIP_VALIDATE environment variable (read once per
  ///       process, not per sweep) — the default,
  ///    0  force off,  1  force on (deterministic hook for tests).
  int validate = -1;

  /// Approximate bytes resident in this scratch's buffers (capacities, not
  /// sizes — pooled buffers keep capacity across runs, and capacity is what
  /// the process actually holds). Powers SlabLoad::peak_arena_bytes and the
  /// memory-budget accounting of DESIGN.md §11.
  [[nodiscard]] std::size_t resident_bytes() const;

  struct Impl;  // buffer bundle, private to vatti.cpp
  std::unique_ptr<Impl> impl;
};

/// General polygon clipping with Vatti's scanline algorithm — the library's
/// sequential substrate, equivalent in role to the GPC library the paper
/// plugs into Algorithm 2 Step 6.
///
/// Handles arbitrary inputs: concave contours, multiple contours, holes
/// (even-odd), and self-intersecting contours. Horizontal edges are removed
/// internally by the paper's perturbation preprocessing (§III-C). Output
/// contours are oriented exterior-CCW / hole-CW and never self-intersect.
///
/// `scratch`, when given, supplies the sweep's working buffers and is
/// reset internally — pass a per-worker instance to amortize allocations
/// across calls; results are identical either way. `kernel` selects the
/// per-beam maintenance strategy (see SweepKernel); both settings produce
/// byte-identical output.
geom::PolygonSet vatti_clip(const geom::PolygonSet& subject,
                            const geom::PolygonSet& clip, geom::BoolOp op,
                            VattiStats* stats = nullptr,
                            VattiScratch* scratch = nullptr,
                            SweepKernel kernel = SweepKernel::kTuned);

// Forward declaration (seq/bounds.hpp owns the definition).
struct BoundTable;

/// The scratch's bound table / scanbeam schedule, exposed so the slab
/// engines can assemble them directly (prepared-contour fragments and
/// band-cut bounds from seq::build_band; a slice of the shared global
/// schedule) and then run the sweep via vatti_sweep_prepared without
/// materializing intermediate polygons.
BoundTable& scratch_bounds(VattiScratch& scratch);
std::vector<double>& scratch_schedule(VattiScratch& scratch);

/// Run the sweep over a bound table the caller already assembled in
/// `scratch` (via scratch_bounds; minima must be (y, x)-sorted — see
/// sort_minima). With `prebuilt_schedule`, scratch_schedule(scratch) must
/// hold the sorted distinct endpoint ys of that table and is consumed
/// as-is; otherwise the schedule is built here exactly as vatti_clip
/// builds it. Fault-injection site and output-corruption hook are the same
/// kVattiSweep sites vatti_clip fires. Output is byte-identical to
/// vatti_clip on inputs whose prepared bounds/schedule match.
///
/// A table cut to a band (seq::build_band) is swept as an open band: the
/// schedule's first and last values must be the band's finite ends. The
/// bounds in BoundTable::entering are preloaded on the first scanline and
/// open output polygons with horizontal bottom sides there; the bounds
/// that leave across the top (BoundEdge::next == kLeavesBand) close theirs
/// with horizontal top sides on the last scanline. Output rings of a band
/// therefore lie within it, and their sides on the band's scanlines carry
/// the cut vertices exactly.
geom::PolygonSet vatti_sweep_prepared(geom::BoolOp op, VattiStats* stats,
                                      VattiScratch& scratch,
                                      SweepKernel kernel = SweepKernel::kTuned,
                                      bool prebuilt_schedule = false);

}  // namespace psclip::seq
