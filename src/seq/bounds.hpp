#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/polygon.hpp"

namespace psclip::seq {

/// A polygon edge directed upward (bot.y < top.y). Vatti's algorithm views
/// every contour as a set of *bounds*: maximal ascending chains of edges
/// running from a local minimum to a local maximum (§III-A).
struct BoundEdge {
  geom::Point bot, top;
  double dxdy = 0.0;       ///< slope dx/dy (finite: no horizontal edges)
  bool is_clip = false;    ///< false = subject polygon, true = clip polygon
  /// Next edge up the same bound; -1 at a local max; kLeavesBand where a
  /// band-cut bound leaves its band across the top (see seq/band.hpp).
  std::int32_t next = -1;
};

/// BoundEdge::next of the last edge of a bound cut at a band's top: the
/// bound continues above the band, so the edge ends on the band's top
/// scanline without a local maximum there.
inline constexpr std::int32_t kLeavesBand = -2;

/// A local minimum vertex with the first edges of its two ascending bounds.
/// `edge_left` has the smaller slope dx/dy, i.e. it runs to the left of
/// `edge_right` immediately above the minimum.
struct LocalMin {
  geom::Point pt;
  std::int32_t edge_left = -1;
  std::int32_t edge_right = -1;
};

/// Vatti's "minima table": all edges of both inputs decomposed into bounds,
/// plus the local minima sorted by (y, x) — the event schedule from which
/// the active edge table is fed.
struct BoundTable {
  std::vector<BoundEdge> edges;
  std::vector<LocalMin> minima;  ///< sorted by (pt.y, pt.x)
  /// First edges of the bounds that enter a band across its bottom (the
  /// band builder's cut chains, seq/band.hpp): the sweep preloads them on
  /// its first scanline instead of inserting them at a local minimum.
  /// Empty for whole-input tables.
  std::vector<std::int32_t> entering;

  [[nodiscard]] std::size_t num_edges() const { return edges.size(); }

  /// Empty the table, retaining capacity.
  void clear() {
    edges.clear();
    minima.clear();
    entering.clear();
  }
};

/// Decompose the contours of `p` into bounds and append them to `bt`.
/// Precondition: no horizontal edges (run geom::remove_horizontals first)
/// and every contour has >= 3 vertices. Degenerate contours are skipped.
void append_bounds(BoundTable& bt, const geom::PolygonSet& p, bool is_clip);

/// Per-contour form: decompose one contour into bounds and append them.
/// Emits edges and minima in exactly the order the set form would for this
/// contour, so building a table contour-by-contour is bit-identical to the
/// set pipeline.
void append_bounds(BoundTable& bt, const geom::Contour& c, bool is_clip);

/// Sort `bt.minima` by (y, x) — the final step of build_bounds_into,
/// exposed so callers that assemble tables from prepared fragments (the
/// slab engines' band builder) finish them identically.
void sort_minima(BoundTable& bt);

/// Drop interior vertices of exactly-horizontal collinear runs: vertex i
/// goes when prev.y == cur.y == next.y (exact compares) and cur.x lies
/// strictly between its neighbours' x. Rect-clipped input (and output
/// pieces fed back in) carries chains of such vertices along a clip
/// boundary line (one per crossing); left in place, perturbation turns
/// each into a separate
/// near-horizontal bound edge whose rounded x-order flips between beams and
/// breaks the tuned kernel's sorted-beam fast path. Dropping the interior
/// vertex of an exactly-collinear run never changes the even-odd region.
/// Runs before remove_horizontals in the shared per-contour prep
/// (prepare_contour_points). Returns the number of vertices removed.
int coalesce_horizontal_runs(geom::Contour& c);

/// Shared per-contour preparation: geom::cleaned_contour (exact duplicate
/// removal) -> coalesce_horizontal_runs -> per-contour
/// geom::remove_horizontals, into `out` (storage reused). Returns false
/// when fewer than 3 vertices survive — such contours contribute no bounds
/// anywhere. vatti_clip and both slab engines prepare every contour
/// through this one function; the slab engines' healthy ≡ retry
/// bit-identity rests on the prep being per-contour deterministic.
bool prepare_contour_points(const geom::Contour& in, geom::Contour& out);

/// One globally prepared contour, ready to drop into any slab's BoundTable
/// without re-running clean/coalesce/perturb/bound-build: the prepared
/// vertices, the contour's own bound fragment (edge ids local to `bt`,
/// minima in emission order, unsorted), its sorted distinct endpoint ys
/// (a ready-made scanbeam-schedule run), prepared bbox and finiteness.
///
/// Fragment layout (append_bounds): every bound's edges are contiguous in
/// `bt.edges`, ascending in y, and the bounds follow one another in the
/// order of their first edges — so bound k spans [head_k, head_{k+1}) where
/// the heads are the minima's edge ids in increasing order. The band
/// builder (seq/band.hpp) binary-searches a bound through that span.
struct PreparedContour {
  geom::Contour pts;
  BoundTable bt;
  std::vector<double> ys;
  geom::BBox box;
  bool finite = true;
};

/// Fill `out` from `in` (storage reused). Returns false when the contour
/// degenerates (< 3 vertices after cleaning); `out`'s table and schedule
/// run are left empty in that case.
bool prepare_contour(const geom::Contour& in, bool is_clip,
                     PreparedContour& out);

/// Version salt folded into contour_digest. Bump whenever prepare_contour's
/// output changes for the same input bytes (a perturbation-policy change, a
/// new cleaning rule, ...), so persisted or long-lived caches keyed on the
/// digest can never serve a stale prepared fragment across versions.
inline constexpr std::uint64_t kPrepareDigestVersion = 1;

/// Content address of (contour bytes, prepare options): FNV-1a 64 over the
/// vertex coordinate bit patterns in order, the vertex count, `is_clip`, and
/// kPrepareDigestVersion. Two contours digest equal iff their vertex
/// sequences are bit-identical under the same options — exactly the
/// condition for prepare_contour to produce bit-identical output (the prep
/// pipeline is a pure function of those bytes). The `hole` flag is ignored,
/// as prepare_contour ignores it (even-odd fill).
std::uint64_t contour_digest(const geom::Contour& c, bool is_clip);

/// Raw FNV-1a 64 over `n` bytes, seeded with `basis` (pass kFnvBasis to
/// start a fresh digest). Exposed so caches can verify keys and tests can
/// manufacture collisions.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t basis);

/// Source of shared immutable prepared fragments — the seam between the
/// clip engines (mt::slab_clip / mt::multiset_clip, which only consume
/// prepared contours) and a cross-request cache (svc::PreparedCache, which
/// owns lifetime and eviction). Returns a fragment equal to what
/// prepare_contour(c, is_clip, out) would produce, or null when the contour
/// degenerates (prepare_contour returns false). Implementations must be
/// thread-safe: the engines call prepared() from every pool worker, and a
/// service calls into one source from many concurrent requests. Returned
/// fragments are immutable and may outlive the source's entry (shared_ptr
/// keeps an evicted fragment alive until its last reader drops it).
class PreparedSource {
 public:
  virtual ~PreparedSource() = default;
  virtual std::shared_ptr<const PreparedContour> prepared(
      const geom::Contour& c, bool is_clip) = 0;
};

/// Append a prepared fragment to `bt`: edges copied with their
/// intra-fragment `next` links rebased to the destination table, minima
/// with their edge ids rebased. Appending fragments in contour order
/// reproduces append_bounds over the same contour sequence byte for byte.
void append_prepared(BoundTable& bt, const PreparedContour& pc);

/// Merge sorted runs held back-to-back in `ys` (run r occupies
/// ys[run_end[r], run_end[r+1]); run_end.front() must be 0 and
/// run_end.back() == ys.size()) into one sorted distinct-value vector with
/// bottom-up pairwise in-place merges. `run_end` is consumed as scratch.
/// Factored out of scanbeam_ys_merged_into; the slab engines use it to
/// build the shared schedule (mt::slab_clip) and per-slab schedules from
/// per-contour runs (mt::multiset_clip, slab_clip's retry rung).
void merge_sorted_runs_unique(std::vector<double>& ys,
                              std::vector<std::size_t>& run_end);

/// Build the full table for a subject/clip pair and sort the minima.
BoundTable build_bounds(const geom::PolygonSet& subject,
                        const geom::PolygonSet& clip);

/// As build_bounds, but reusing `bt`'s storage: the table is cleared with
/// capacity retained, so repeated clips (per-worker slab arenas) do not
/// reallocate the edge and minima arrays every time.
void build_bounds_into(BoundTable& bt, const geom::PolygonSet& subject,
                       const geom::PolygonSet& clip);

/// Collect the sorted distinct y-coordinates of all edge endpoints — the
/// scanbeam schedule (paper §III-B: "scanbeam table").
std::vector<double> scanbeam_ys(const BoundTable& bt);

/// As scanbeam_ys, but into a reused buffer (cleared, capacity retained).
void scanbeam_ys_into(const BoundTable& bt, std::vector<double>& ys);

/// As scanbeam_ys_into, but built by k-way merging the per-bound sorted
/// y-lists (each bound's ys — its minimum plus the edge tops along the
/// chain — are already ascending) with bottom-up pairwise in-place merges,
/// instead of a comparison sort over all 2·|edges| endpoints. Produces the
/// exact same schedule: the per-bound runs cover every distinct endpoint y,
/// and merge + unique yields the identical sorted distinct-value vector.
void scanbeam_ys_merged_into(const BoundTable& bt, std::vector<double>& ys);

}  // namespace psclip::seq
