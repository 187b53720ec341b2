// Vatti scanline clipper.
//
// Structure follows the paper's description of the sequential algorithm
// (§III-B): local-minima table -> scanbeam schedule -> active edge table
// (AET) maintained bottom-to-top. Within a scanbeam, intersections are
// discovered by re-sorting the AET by x at the top scanline; every adjacent
// transposition performed by the insertion sort is exactly one edge
// crossing (the paper's inversion insight, Lemma 4), processed in a valid
// order precisely because only currently-adjacent edges ever swap.
//
// Vertex emission is derived from one uniform rule instead of Vatti's
// 16-way vertex classification: at any event point, evaluate in/out of the
// boolean result for the sectors around the point (from the even-odd parity
// flags carried by each AET entry, cf. Lemma 1-3); every maximal interior
// run of sectors is bounded by two contributing half-edges, which connect
// through the point — below+below closes a contour, above+above starts one,
// below+above continues one.
//
// Data layout (DESIGN.md §9): the AET is SoA — the cold sweep-status fields
// (SweepEntry) in one array, the hot beam-local x positions in two parallel
// double arrays (xb = x at the beam bottom, xt = x at the beam top) — so
// the per-beam ordering scans stream through contiguous doubles and the
// beam rollover is one vector swap. A flat edge-id -> AET-index array
// replaces the per-beam hash-map rebuild; it is maintained incrementally
// across beams (O(1) per crossing swap, one suffix refresh per structural
// edit batch). Because the AET is nearly sorted between beams, an O(|AET|)
// adjacent scan detects the crossing-free common case and skips the
// intersection machinery entirely. SweepKernel::kReference retains the
// pre-optimization strategy; both kernels produce byte-identical output.
//
// Open bands (DESIGN.md §3): a slab's table may hold bounds cut to the
// band [y_lo, y_hi] by the band builder (seq/band.hpp). The band's bottom
// and top are then just the first and last scanlines: the bounds entering
// across the bottom are preloaded into the AET with their parity prefix and
// open output polygons between consecutive contributing edges, and those
// leaving across the top are paired and closed there — Algorithm 1's beam
// rule (seq/sweep_events.hpp) applied to the whole band. No rectangle
// edges are swept.

#include "seq/vatti.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <vector>

#include "geom/intersect.hpp"
#include "geom/perturb.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/fault.hpp"
#include "seq/bounds.hpp"
#include "seq/out_poly.hpp"
#include "seq/sweep_events.hpp"

namespace psclip::seq {
namespace {

using geom::BoolOp;
using geom::Point;
using geom::PolygonSet;

/// One beam-internal crossing: eu is left of ev below the crossing point.
struct CrossEv {
  std::int32_t eu, ev;  // bound-edge ids
  Point p;
};

/// One not-yet-merged AET insertion staged by the batched minima pass:
/// the pair's entries go immediately before old-AET index `base`.
struct StagedEntry {
  std::size_t base;
  SweepEntry ent;
  double x;  ///< beam-bottom x (the minimum's x)
};

/// PSCLIP_VALIDATE presence, read once per process (not per sweep).
bool env_validate_enabled() {
  static const bool on = std::getenv("PSCLIP_VALIDATE") != nullptr;
  return on;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// All buffers the sweep works in. Owned by VattiScratch so that a
/// per-worker arena clears them (capacity retained) instead of paying a
/// fresh round of allocations per call — and, for the per-beam event
/// buffers, per scanbeam.
struct VattiScratch::Impl {
  BoundTable bt;
  std::vector<double> ys;          ///< scanbeam schedule
  // SoA active edge table: cold sweep-status entries + hot x arrays.
  std::vector<SweepEntry> aet;
  std::vector<double> xb;          ///< x on the current beam's bottom scanline
  std::vector<double> xt;          ///< x on the current beam's top scanline
  std::vector<std::int32_t> pos;   ///< edge id -> AET index (tuned kernel)
  OutPolyPool pool;
  // process_intersections working set (cleared every beam):
  std::vector<CrossEv> events;
  std::vector<std::pair<double, std::int32_t>> keys;  ///< (xt, edge id)
  std::unordered_map<std::int32_t, std::size_t> posmap;  ///< reference kernel
  std::vector<CrossEv> pending, deferred;
  // insert_minima batch staging + merge targets (tuned kernel):
  std::vector<StagedEntry> staged;
  std::vector<SweepEntry> aet_merge;
  std::vector<double> xb_merge;

  void begin_run() {
    aet.clear();
    xb.clear();
    xt.clear();
    pool.reset();
  }
};

VattiScratch::VattiScratch() : impl(std::make_unique<Impl>()) {}
VattiScratch::~VattiScratch() = default;
VattiScratch::VattiScratch(VattiScratch&&) noexcept = default;
VattiScratch& VattiScratch::operator=(VattiScratch&&) noexcept = default;

std::size_t VattiScratch::resident_bytes() const {
  const Impl& s = *impl;
  auto vec = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  std::size_t b = vec(s.bt.edges) + vec(s.bt.minima) + vec(s.bt.entering) +
                  vec(s.ys) + vec(s.aet) + vec(s.xb) + vec(s.xt) +
                  vec(s.pos) + vec(s.events) + vec(s.keys) + vec(s.pending) +
                  vec(s.deferred) + vec(s.staged) + vec(s.aet_merge) +
                  vec(s.xb_merge);
  // Hash map (reference kernel only): buckets + one node per entry.
  b += s.posmap.bucket_count() * sizeof(void*) +
       s.posmap.size() *
           (sizeof(std::pair<std::int32_t, std::size_t>) + 2 * sizeof(void*));
  b += s.pool.resident_bytes();
  return b;
}

namespace {

class Sweep {
 public:
  Sweep(VattiScratch::Impl& sc, BoolOp op, SweepKernel kernel,
        int validate_mode, bool build_schedule = true)
      : bt_(sc.bt),
        op_(op),
        kernel_(kernel),
        sc_(sc),
        aet_(sc.aet),
        xb_(sc.xb),
        xt_(sc.xt),
        pos_(sc.pos),
        pool_(sc.pool),
        build_schedule_(build_schedule),
        validate_(validate_mode < 0 ? env_validate_enabled()
                                    : validate_mode != 0) {}

  PolygonSet run(VattiStats* stats) {
    const bool tuned = kernel_ == SweepKernel::kTuned;
    if (build_schedule_) {
      // Both constructions produce the same sorted distinct-value vector;
      // the split only decides which cost profile each kernel pays. A
      // caller-prebuilt schedule (fused slab partition: one shared global
      // schedule sliced per slab) therefore serves either kernel.
      const std::int64_t t0 = now_ns();
      if (tuned)
        scanbeam_ys_merged_into(bt_, sc_.ys);
      else
        scanbeam_ys_into(bt_, sc_.ys);
      if (stats) stats->schedule_ns += now_ns() - t0;
    }
    if (tuned) {
      // The flat position index is sized once per run; entries are written
      // before they are read (an edge's slot is set when it enters the AET),
      // so no per-run clear is needed.
      if (pos_.size() < bt_.num_edges()) pos_.resize(bt_.num_edges());
    }
    pool_.reserve(bt_.minima.size());
    const std::vector<double>& ys = sc_.ys;
    std::size_t next_min = 0;
    if (!bt_.entering.empty() && !ys.empty()) preload_band(ys.front());
    // Request governance (DESIGN.md §11): the scanbeam loop is the one
    // place whose trip count is output-sensitive, so it hosts the
    // cooperative cancellation checkpoint (amortized clock reads keep it
    // under the bench_governance_overhead 1% gate) and the preemptive
    // charge for output growth — the only structure a hostile input can
    // blow up beyond any input-proportional bound. The charge is a
    // watermark over the pool's O(1) vertex counter and releases with this
    // scope if the sweep unwinds.
    par::gov::ScopedCharge out_charge;
    for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
      par::gov::checkpoint();
      out_charge.raise_to(pool_.total_vertices() * OutPolyPool::kVertexBytes);
      const double yb = ys[i];
      const double yt = ys[i + 1];
      if (tuned)
        insert_minima_batched(yb, next_min);
      else
        insert_minima_reference(yb, next_min);
      if (validate_) validate_flags(yb, "after-minima");
      process_intersections(yb, yt);
      process_top(yt);
      // Beam rollover: every entry's bottom x for the next beam is its top
      // x here. SoA makes this a buffer swap; the reference kernel pays the
      // per-entry copy the pre-PR AoS layout did.
      if (tuned)
        xb_.swap(xt_);
      else
        xb_.assign(xt_.begin(), xt_.end());
      if (validate_) validate_flags(yt, "after-beam");
      if (stats) {
        ++stats->scanbeams;
        stats->max_aet = std::max<std::int64_t>(
            stats->max_aet, static_cast<std::int64_t>(aet_.size()));
      }
    }
    // Band top: what is still active left the band across its last
    // scanline (the rollover left their x there in xb).
    if (!aet_.empty() && !ys.empty())
      close_scanline(pool_, aet_, xb_, bt_, ys.back(), op_);
    if (stats) {
      stats->edges = static_cast<std::int64_t>(bt_.num_edges());
      stats->intersections = intersections_;
      stats->sorted_beams = sorted_beams_;
      stats->pos_rebuilds = pos_rebuilds_;
      stats->validate_failures = validate_failures_;
    }
    PolygonSet out = pool_.harvest();
    if (stats)
      stats->output_vertices =
          static_cast<std::int64_t>(out.num_vertices());
    return out;
  }

 private:
  const BoundTable& bt_;
  BoolOp op_;
  SweepKernel kernel_;
  VattiScratch::Impl& sc_;
  std::vector<SweepEntry>& aet_;
  std::vector<double>& xb_;
  std::vector<double>& xt_;
  std::vector<std::int32_t>& pos_;
  OutPolyPool& pool_;
  std::int64_t intersections_ = 0;
  std::int64_t sorted_beams_ = 0;
  std::int64_t pos_rebuilds_ = 0;
  std::int64_t validate_failures_ = 0;
  bool build_schedule_ = true;
  bool validate_ = false;

  /// Debug self-check (VattiScratch::validate or PSCLIP_VALIDATE): parity
  /// flags of every AET entry must equal the accumulated flips of the
  /// entries to its left, and the AET must be x-ordered at the given
  /// scanline. Violations print to stderr and count into
  /// VattiStats::validate_failures.
  void validate_flags(double y, const char* where) {
    bool s = false, c = false;
    for (std::size_t i = 0; i < aet_.size(); ++i) {
      const SweepEntry& a = aet_[i];
      if (a.left_s != s || a.left_c != c) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] flag mismatch %s y=%.17g idx=%zu "
                     "have=(%d,%d) want=(%d,%d)\n",
                     where, y, i, (int)a.left_s, (int)a.left_c, (int)s,
                     (int)c);
      }
      s ^= flip_s(a);
      c ^= flip_c(a);
    }
    for (std::size_t i = 1; i < aet_.size(); ++i) {
      const BoundEdge& ep = edge(aet_[i - 1]);
      const BoundEdge& ec = edge(aet_[i]);
      const double xp = ep.top.y == y ? ep.top.x : geom::x_at_y(ep.bot, ep.top, y);
      const double xc = ec.top.y == y ? ec.top.x : geom::x_at_y(ec.bot, ec.top, y);
      if (xc < xp - 1e-12) {
        ++validate_failures_;
        std::fprintf(stderr,
                     "[psclip] order violation %s y=%.17g idx=%zu "
                     "x[%zu]=%.17g > x[%zu]=%.17g\n",
                     where, y, i, i - 1, xp, i, xc);
      }
    }
  }

  [[nodiscard]] const BoundEdge& edge(const SweepEntry& a) const {
    return bt_.edges[static_cast<std::size_t>(a.e)];
  }
  [[nodiscard]] bool flip_s(const SweepEntry& a) const {
    return !edge(a).is_clip;
  }
  [[nodiscard]] bool flip_c(const SweepEntry& a) const {
    return edge(a).is_clip;
  }
  [[nodiscard]] bool res(bool s, bool c) const {
    return geom::in_result(s, c, op_);
  }

  /// Rewrite the flat position index for AET slots [from, end) after a
  /// structural edit shifted them. O(1) writes per shifted slot — the shift
  /// itself already paid the same traffic.
  void sync_pos(std::size_t from) {
    for (std::size_t i = from; i < aet_.size(); ++i)
      pos_[static_cast<std::size_t>(aet_[i].e)] = static_cast<std::int32_t>(i);
    ++pos_rebuilds_;
  }

  /// Bisection identical to std::upper_bound (same midpoint sequence) over
  /// an index range, with the minima comparator: key (x, slope) against an
  /// element's (xb, dxdy).
  template <typename XbAt, typename DxdyAt>
  std::size_t upper_bound_key(double x, double slope, std::size_t n,
                              XbAt xb_at, DxdyAt dxdy_at) const {
    std::size_t lo = 0, hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double ex = xb_at(mid);
      const bool key_less = x != ex ? x < ex : slope < dxdy_at(mid);
      if (key_less)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }

  /// Build the Active-pair fields for one local minimum given the parity
  /// flags of the entry to its left in the (conceptual) post-insert AET.
  /// Shared by both insertion strategies so the emission logic cannot
  /// drift between them.
  std::pair<SweepEntry, SweepEntry> make_min_pair(const LocalMin& lm, bool ls,
                                                  bool lc) {
    const auto eL = lm.edge_left;
    const auto eR = lm.edge_right;
    const bool fs = !bt_.edges[static_cast<std::size_t>(eL)].is_clip;
    const bool fc = !fs;
    const bool outside = res(ls, lc);            // sector around the min
    const bool between = res(ls ^ fs, lc ^ fc);  // sector above, inside

    std::int32_t poly = -1;
    if (outside != between) {
      // Contributing minimum. If the wedge above is interior this starts
      // an exterior contour (left edge feeds the front); if the
      // surroundings are interior it opens a hole (roles swap).
      poly = between ? pool_.create(lm.pt, /*hole=*/false, eL, eR)
                     : pool_.create(lm.pt, /*hole=*/true, eR, eL);
    }

    SweepEntry left;
    left.e = eL;
    left.left_s = ls;
    left.left_c = lc;
    left.poly = poly;
    SweepEntry right;
    right.e = eR;
    right.left_s = ls ^ fs;
    right.left_c = lc ^ fc;
    right.poly = poly;
    return {left, right};
  }

  /// Seed the AET on the band's bottom scanline `y` with the bounds that
  /// enter across it, in x order (ties by slope, as minima insert; then by
  /// edge id, so the order is a function of the table alone), then set
  /// their parity prefix and open output polygons between consecutive
  /// contributing edges. Runs before the first minima batch.
  void preload_band(double y) {
    auto& ks = sc_.keys;  // (x on y, edge id)
    ks.clear();
    for (const std::int32_t e : bt_.entering) {
      assert(bt_.edges[static_cast<std::size_t>(e)].bot.y == y);
      ks.emplace_back(bt_.edges[static_cast<std::size_t>(e)].bot.x, e);
    }
    std::sort(ks.begin(), ks.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      const double sa = bt_.edges[static_cast<std::size_t>(a.second)].dxdy;
      const double sb = bt_.edges[static_cast<std::size_t>(b.second)].dxdy;
      if (sa != sb) return sa < sb;
      return a.second < b.second;
    });
    aet_.resize(ks.size());
    xb_.resize(ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      aet_[i] = SweepEntry{};
      aet_[i].e = ks[i].second;
      xb_[i] = ks[i].first;
    }
    assign_parity(aet_, bt_);
    open_scanline(pool_, aet_, xb_, bt_, y, op_);
    if (kernel_ == SweepKernel::kTuned) sync_pos(0);
  }

  /// Pre-PR insertion strategy: one O(|AET|) mid-vector insert per minimum.
  void insert_minima_reference(double yb, std::size_t& next_min) {
    while (next_min < bt_.minima.size() &&
           bt_.minima[next_min].pt.y == yb) {
      const LocalMin& lm = bt_.minima[next_min++];
      const double slope_l =
          bt_.edges[static_cast<std::size_t>(lm.edge_left)].dxdy;

      // Position by (x at this scanline, then slope).
      const std::size_t pos = upper_bound_key(
          lm.pt.x, slope_l, aet_.size(), [&](std::size_t i) { return xb_[i]; },
          [&](std::size_t i) { return edge(aet_[i]).dxdy; });

      bool ls = false, lc = false;
      if (pos > 0) {
        const SweepEntry& prev = aet_[pos - 1];
        ls = prev.left_s ^ flip_s(prev);
        lc = prev.left_c ^ flip_c(prev);
      }
      const auto [left, right] = make_min_pair(lm, ls, lc);
      aet_.insert(aet_.begin() + static_cast<std::ptrdiff_t>(pos),
                  {left, right});
      xb_.insert(xb_.begin() + static_cast<std::ptrdiff_t>(pos), 2, lm.pt.x);
    }
  }

  /// Batched insertion strategy: stage every minimum of this scanline, then
  /// splice them into the AET with ONE merge pass instead of one O(|AET|)
  /// memmove each. Each minimum still bisects the same conceptual sequence
  /// the reference kernel searches (old entries + minima staged so far), so
  /// positions, neighbour flags and pool-creation order are identical.
  void insert_minima_batched(double yb, std::size_t& next_min) {
    if (next_min >= bt_.minima.size() || bt_.minima[next_min].pt.y != yb)
      return;
    std::vector<StagedEntry>& nb = sc_.staged;
    nb.clear();
    const std::size_t old_n = aet_.size();

    // Resolve a merged-view index to its element: staged entry t sits at
    // merged index nb[t].base + t (bases are non-decreasing, so the merged
    // indices are strictly increasing).
    auto resolve = [&](std::size_t idx) -> std::pair<bool, std::size_t> {
      // Returns {is_staged, index-into-nb-or-old}.
      std::size_t lo = 0, hi = nb.size();
      while (lo < hi) {  // first t with nb[t].base + t >= idx
        const std::size_t mid = lo + (hi - lo) / 2;
        if (nb[mid].base + mid >= idx)
          hi = mid;
        else
          lo = mid + 1;
      }
      if (lo < nb.size() && nb[lo].base + lo == idx) return {true, lo};
      return {false, idx - lo};  // lo staged entries precede idx
    };

    while (next_min < bt_.minima.size() &&
           bt_.minima[next_min].pt.y == yb) {
      const LocalMin& lm = bt_.minima[next_min++];
      const double slope_l =
          bt_.edges[static_cast<std::size_t>(lm.edge_left)].dxdy;

      // Bisect the merged view (old AET + staged pairs) — probe-for-probe
      // the same search the reference kernel runs on its physical array.
      const std::size_t p = upper_bound_key(
          lm.pt.x, slope_l, old_n + nb.size(),
          [&](std::size_t i) {
            const auto [st, k] = resolve(i);
            return st ? nb[k].x : xb_[k];
          },
          [&](std::size_t i) {
            const auto [st, k] = resolve(i);
            return st ? edge(nb[k].ent).dxdy : edge(aet_[k]).dxdy;
          });

      bool ls = false, lc = false;
      if (p > 0) {
        const auto [st, k] = resolve(p - 1);
        const SweepEntry& prev = st ? nb[k].ent : aet_[k];
        ls = prev.left_s ^ flip_s(prev);
        lc = prev.left_c ^ flip_c(prev);
      }
      const auto [left, right] = make_min_pair(lm, ls, lc);

      // Stage the pair at merged position p: staged entries before p keep
      // their slots, the rest shift right by two.
      std::size_t before = 0;  // staged entries strictly left of p
      while (before < nb.size() && nb[before].base + before < p) ++before;
      const std::size_t base = p - before;
      nb.insert(nb.begin() + static_cast<std::ptrdiff_t>(before),
                {StagedEntry{base, left, lm.pt.x},
                 StagedEntry{base, right, lm.pt.x}});
    }

    // One merge pass: splice the staged pairs (sorted by base) into the
    // AET and its bottom-x array.
    std::vector<SweepEntry>& am = sc_.aet_merge;
    std::vector<double>& xm = sc_.xb_merge;
    am.clear();
    xm.clear();
    am.reserve(old_n + nb.size());
    xm.reserve(old_n + nb.size());
    std::size_t oi = 0;
    for (const StagedEntry& ne : nb) {
      for (; oi < ne.base; ++oi) {
        am.push_back(aet_[oi]);
        xm.push_back(xb_[oi]);
      }
      am.push_back(ne.ent);
      xm.push_back(ne.x);
    }
    for (; oi < old_n; ++oi) {
      am.push_back(aet_[oi]);
      xm.push_back(xb_[oi]);
    }
    const std::size_t first_touched = nb.front().base;
    aet_.swap(am);
    xb_.swap(xm);
    sync_pos(first_touched);
  }

  [[nodiscard]] double top_x(const SweepEntry& a, double yt) const {
    const BoundEdge& e = edge(a);
    if (e.top.y == yt) return e.top.x;
    return geom::x_at_y(e.bot, e.top, yt);
  }

  void process_intersections(double yb, double yt) {
    const bool tuned = kernel_ == SweepKernel::kTuned;
    const std::size_t n = aet_.size();
    xt_.resize(n);
    // Fill the top-x array and detect the crossing-free common case in the
    // same streaming pass: the AET left the previous beam sorted by that
    // beam's top x, so between beams it is *nearly* sorted — most beams
    // have no adjacent inversion at all. The adjacent strict-< checks are
    // exactly the insertion sort's swap condition, so "no inversion here"
    // is precisely "the sort would perform zero swaps" (NaN included: both
    // comparisons are false, neither path swaps).
    bool any_inversion = false;
    for (std::size_t i = 0; i < n; ++i) {
      xt_[i] = top_x(aet_[i], yt);
      if (i > 0 && xt_[i] < xt_[i - 1]) any_inversion = true;
    }
    if (!any_inversion) {
      ++sorted_beams_;
      // Zero swaps => zero crossings => nothing to emit. Only the tuned
      // kernel gets to skip the machinery; the reference kernel still runs
      // the full pre-PR path (whose insertion sort performs zero swaps and
      // produces zero events), keeping its cost profile honest while the
      // counter stays comparable across kernels.
      if (tuned) return;
    }

    // Phase 1 — enumerate the beam's crossings as the inversions between
    // the bottom and top x-orders (Lemma 4), on a scratch copy so that no
    // sweep state changes yet. The event and key buffers live in the
    // VattiScratch (cleared here, capacity retained): this loop runs once
    // per scanbeam, and per-beam reallocation is exactly the churn the
    // per-worker slab arenas exist to remove.
    std::vector<CrossEv>& events = sc_.events;
    events.clear();
    {
      auto& ks = sc_.keys;  // (xt, edge id)
      ks.clear();
      ks.reserve(n);
      for (std::size_t i = 0; i < n; ++i) ks.emplace_back(xt_[i], aet_[i].e);
      for (std::size_t i = 1; i < ks.size(); ++i) {
        std::size_t j = i;
        while (j > 0 && ks[j].first < ks[j - 1].first) {
          const BoundEdge& eu =
              bt_.edges[static_cast<std::size_t>(ks[j - 1].second)];
          const BoundEdge& ev =
              bt_.edges[static_cast<std::size_t>(ks[j].second)];
          Point p =
              geom::line_intersection(eu.bot, eu.top, ev.bot, ev.top);
          // A genuine crossing lies inside the beam up to rounding; allow
          // one beam height of slack before distrusting the division.
          const double slack = yt - yb;
          if (!(p.y >= yb - slack && p.y <= yt + slack) ||
              !std::isfinite(p.x)) {
            // Nearly parallel edges (e.g. near-horizontals cut at a slab
            // boundary) can invert in rounded x-order while their analytic
            // intersection is far away or at infinity (cross(r,s)
            // underflows). The swap is still required to restore the top
            // x-order; emit at mid-beam, where the two edges sit within
            // rounding of each other.
            const double ym = 0.5 * (yb + yt);
            const double xu = geom::x_at_y(eu.bot, eu.top, ym);
            const double xv = geom::x_at_y(ev.bot, ev.top, ym);
            p = {0.5 * (xu + xv), ym};
          }
          events.push_back({ks[j - 1].second, ks[j].second, p});
          std::swap(ks[j - 1], ks[j]);
          --j;
        }
      }
    }
    if (events.empty()) return;

    // Phase 2 — process in ascending y of the crossing point. At its own
    // event time every crossing pair is adjacent in the AET (all lower
    // crossings have already swapped), which is what makes the sector
    // emission sound. Processing in enumeration order instead connects
    // boundaries wrongly when three edges cross pairwise in one beam.
    std::stable_sort(
        events.begin(), events.end(),
        [](const CrossEv& a, const CrossEv& b) { return a.p.y < b.p.y; });

    // Position lookup: the tuned kernel's flat index is already valid (it
    // is maintained across beams); the reference kernel rebuilds its hash
    // map here, once per crossing beam, as the pre-PR code did.
    if (!tuned) {
      auto& pos = sc_.posmap;
      pos.clear();
      pos.reserve(n * 2);
      for (std::size_t i = 0; i < n; ++i) pos[aet_[i].e] = i;
    }
    auto pos_of = [&](std::int32_t e) -> std::size_t {
      return tuned ? static_cast<std::size_t>(
                         pos_[static_cast<std::size_t>(e)])
                   : sc_.posmap[e];
    };
    auto swap_entries = [&](std::size_t iu, std::size_t iv) {
      std::swap(aet_[iu], aet_[iv]);
      std::swap(xt_[iu], xt_[iv]);
      if (tuned) {
        pos_[static_cast<std::size_t>(aet_[iu].e)] =
            static_cast<std::int32_t>(iu);
        pos_[static_cast<std::size_t>(aet_[iv].e)] =
            static_cast<std::int32_t>(iv);
      } else {
        sc_.posmap[aet_[iu].e] = iu;
        sc_.posmap[aet_[iv].e] = iv;
      }
    };

    std::vector<CrossEv>& pending = sc_.pending;
    pending.swap(events);  // hand over the enumerated crossings, no copy
    std::vector<CrossEv>& deferred = sc_.deferred;
    while (!pending.empty()) {
      bool progress = false;
      deferred.clear();
      for (const CrossEv& ev : pending) {
        std::size_t iu = pos_of(ev.eu);
        std::size_t iv = pos_of(ev.ev);
        if (iu > iv) std::swap(iu, iv);  // roles flip with current order
        if (iu + 1 == iv) {
          crossing_event(iu, iv, ev.p);
          swap_entries(iu, iv);
          progress = true;
        } else {
          deferred.push_back(ev);
        }
      }
      pending.swap(deferred);
      if (!progress && !pending.empty()) {
        // Degenerate ties interlocked (nearly coincident crossing points,
        // e.g. three edges through one point). Force-process the remaining
        // events in order: emit on the pair as if adjacent, swap, and
        // rebuild every parity flag from the array order — best-effort
        // emission at a degenerate point, but contours stay attached and
        // close (dropping emissions here loses whole output rings).
        for (const CrossEv& ev : pending) {
          std::size_t iu = pos_of(ev.eu);
          std::size_t iv = pos_of(ev.ev);
          if (iu > iv) std::swap(iu, iv);
          crossing_event(iu, iv, ev.p);
          swap_entries(iu, iv);
          assign_parity(aet_, bt_);
        }
        break;
      }
    }
  }

  /// Handle the crossing of aet_[ui] (left) and aet_[vi] = aet_[ui+1] at
  /// point p; emission and flag updates are shared with Algorithm 1's
  /// per-scanbeam processing (seq/sweep_events.hpp). Does NOT swap the
  /// entries (caller does).
  void crossing_event(std::size_t ui, std::size_t vi, const Point& p) {
    SweepEntry& u = aet_[ui];
    SweepEntry& v = aet_[vi];
    ++intersections_;
    emit_crossing(pool_, u, edge(u).is_clip, v, edge(v).is_clip, p, op_);
  }

  /// Erase AET slot i, keeping the top-x array aligned (the beam rollover
  /// swap hands it to the next beam as xb). The flat position index is
  /// resynced by the caller after the whole structural edit.
  void erase_at(std::size_t i) {
    aet_.erase(aet_.begin() + static_cast<std::ptrdiff_t>(i));
    xt_.erase(xt_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void process_top(double yt) {
    const bool tuned = kernel_ == SweepKernel::kTuned;
    for (std::size_t i = 0; i < aet_.size();) {
      SweepEntry& a = aet_[i];
      const BoundEdge e = edge(a);  // copy: aet_ may be mutated below
      if (e.top.y != yt || e.next == kLeavesBand) {
        // Not ending here, or leaving the band across its top scanline:
        // closed by the band-top pass after the last beam.
        ++i;
        continue;
      }
      if (e.next >= 0) {
        // Intermediate vertex: the bound continues with the next edge.
        const bool outside = res(a.left_s, a.left_c);
        const bool inside = res(a.left_s ^ flip_s(a), a.left_c ^ flip_c(a));
        if (outside != inside && a.poly >= 0)
          pool_.extend_reassign(a.poly, a.e, e.top, e.next);
        a.e = e.next;
        if (tuned)
          pos_[static_cast<std::size_t>(e.next)] =
              static_cast<std::int32_t>(i);
        ++i;
        continue;
      }
      // Local maximum: find the partner bound ending at the same point.
      std::size_t j = i + 1;
      while (j < aet_.size()) {
        const BoundEdge& pe = edge(aet_[j]);
        if (pe.next == -1 && pe.top == e.top) break;
        ++j;
      }
      if (j == aet_.size()) {
        // No partner (degenerate input slipped through): drop the edge.
        erase_at(i);
        if (tuned) sync_pos(i);
        continue;
      }
      // In general position the partner is adjacent. If ties in xt left
      // strays between them, repair their parity for the removal of `a`
      // (removing the partner on their right does not affect them).
      for (std::size_t t = i + 1; t < j; ++t) {
        aet_[t].left_s = aet_[t].left_s ^ flip_s(a);
        aet_[t].left_c = aet_[t].left_c ^ flip_c(a);
      }
      const bool outside = res(a.left_s, a.left_c);
      const bool between = res(a.left_s ^ flip_s(a), a.left_c ^ flip_c(a));
      if (outside != between && a.poly >= 0 && aet_[j].poly >= 0)
        pool_.close(a.poly, a.e, aet_[j].poly, aet_[j].e, e.top);
      erase_at(j);
      erase_at(i);
      if (tuned) sync_pos(i);
      // i now indexes the entry after the removed pair's position.
    }
  }
};

}  // namespace

namespace {

/// Shared sweep tail of vatti_clip / vatti_sweep_prepared: the scratch's
/// bound table is ready (and, with `prebuilt_schedule`, its schedule too);
/// run the sweep, feed the trace sink, apply the kVattiSweep corruption
/// hook.
PolygonSet run_sweep(VattiScratch& sc, BoolOp op, VattiStats* stats,
                     SweepKernel kernel, bool prebuilt_schedule) {
  sc.impl->begin_run();
  ++sc.runs;
  obs::TraceSink* const sink = obs::global_sink();
  VattiStats sink_stats;
  VattiStats* st = stats ? stats : (sink ? &sink_stats : nullptr);
  Sweep sweep(*sc.impl, op, kernel, sc.validate,
              /*build_schedule=*/!prebuilt_schedule);
  PolygonSet out = sweep.run(st);
  if (sink && st) {
    sink->add_counter("vatti.scanbeams", st->scanbeams);
    sink->add_counter("vatti.sorted_beams", st->sorted_beams);
    sink->add_counter("vatti.pos_rebuilds", st->pos_rebuilds);
  }
  if (par::fault::corrupt(par::fault::Site::kVattiSweep)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    out.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
  }
  return out;
}

}  // namespace

PolygonSet vatti_clip(const PolygonSet& subject, const PolygonSet& clip,
                      BoolOp op, VattiStats* stats, VattiScratch* scratch,
                      SweepKernel kernel) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  VattiScratch local;
  VattiScratch& sc = scratch ? *scratch : local;
  BoundTable& bt = sc.impl->bt;
  {
    const std::int64_t t0 = now_ns();
    bt.clear();
    // Per-contour preparation (clean -> coalesce -> perturb): every step is
    // a per-contour function, so preparing contours one at a time here is
    // bit-identical to whole-set preparation — and to the fused slab
    // partition preparing the same contours once globally.
    geom::Contour prep;
    for (const auto& c : subject.contours)
      if (prepare_contour_points(c, prep))
        append_bounds(bt, prep, /*is_clip=*/false);
    for (const auto& c : clip.contours)
      if (prepare_contour_points(c, prep))
        append_bounds(bt, prep, /*is_clip=*/true);
    sort_minima(bt);
    if (stats) stats->bound_build_ns += now_ns() - t0;
  }
  return run_sweep(sc, op, stats, kernel, /*prebuilt_schedule=*/false);
}

BoundTable& scratch_bounds(VattiScratch& scratch) {
  return scratch.impl->bt;
}

std::vector<double>& scratch_schedule(VattiScratch& scratch) {
  return scratch.impl->ys;
}

PolygonSet vatti_sweep_prepared(BoolOp op, VattiStats* stats,
                                VattiScratch& scratch, SweepKernel kernel,
                                bool prebuilt_schedule) {
  par::fault::inject(par::fault::Site::kVattiSweep);
  return run_sweep(scratch, op, stats, kernel, prebuilt_schedule);
}

}  // namespace psclip::seq
