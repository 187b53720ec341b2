#include "seq/martinez.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cassert>
#include <cmath>
#include <deque>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "geom/intersect.hpp"
#include "geom/predicates.hpp"

namespace psclip::seq {
namespace {

using geom::BoolOp;
using geom::Point;
using geom::PolygonSet;

struct SweepEvent;

/// Event ordering: left-to-right, bottom-to-top, right endpoints before
/// left endpoints at the same point (so a segment ends before another
/// begins), and at a shared left endpoint the lower segment first.
bool event_before(const SweepEvent* a, const SweepEvent* b);

struct SweepEvent {
  Point p;
  bool left = false;        // is p the left endpoint of the segment?
  bool subject = false;     // which input polygon the edge comes from
  SweepEvent* other = nullptr;  // the twin endpoint event

  // Flags valid on left events after insertion into the status:
  bool in_out = false;        // own polygon's interior lies below the edge
  bool other_in_out = false;  // other polygon's interior lies below
  bool result_above = false;  // boolean result occupies the region above
  bool result_below = false;

  // Iterator into the status line, stored so the right event can erase.
  std::set<SweepEvent*, bool (*)(SweepEvent*, SweepEvent*)>::iterator pos_it;
  bool in_status = false;

  [[nodiscard]] bool contributes() const {
    return result_above != result_below;
  }
  /// True if the SEGMENT lies above point q (q is right of the directed
  /// supporting line).
  [[nodiscard]] bool above(const Point& q) const {
    const Point& l = left ? p : other->p;
    const Point& r = left ? other->p : p;
    return geom::orient2d(l, r, q) < 0.0;
  }
  /// True if the SEGMENT lies below point q.
  [[nodiscard]] bool below(const Point& q) const {
    const Point& l = left ? p : other->p;
    const Point& r = left ? other->p : p;
    return geom::orient2d(l, r, q) > 0.0;
  }
};

bool event_before(const SweepEvent* a, const SweepEvent* b) {
  if (a->p.x != b->p.x) return a->p.x < b->p.x;
  if (a->p.y != b->p.y) return a->p.y < b->p.y;
  if (a->left != b->left) return !a->left;  // right endpoint first
  // Same point, same type: the segment whose twin is lower comes first.
  const int s = geom::orient2d_sign(a->p, a->other->p, b->other->p);
  if (s != 0) return s > 0;  // b's twin above a's line => a below => first
  return a < b;  // arbitrary but consistent
}

/// Priority queue comparator (reversed: top() = earliest).
struct EventQueueCmp {
  bool operator()(SweepEvent* a, SweepEvent* b) const {
    return event_before(b, a);
  }
};

/// Status ordering: segment a strictly below segment b at the sweep
/// position where the later of the two was inserted.
bool status_below(SweepEvent* a, SweepEvent* b) {
  if (a == b) return false;
  const bool collinear =
      geom::orient2d(a->p, a->other->p, b->p) == 0.0 &&
      geom::orient2d(a->p, a->other->p, b->other->p) == 0.0;
  if (!collinear) {
    if (a->p == b->p) return a->below(b->other->p);
    if (event_before(a, b)) return a->below(b->p);
    return b->above(a->p);
  }
  // Collinear segments (overlap degeneracy): consistent arbitrary order.
  if (a->p == b->p) return a < b;
  return event_before(a, b);
}

struct ResultEdge {
  Point from, to;  // directed so the result interior is on the LEFT
};

class MartinezSweep {
 public:
  MartinezSweep(BoolOp op) : op_(op), status_(&status_below) {}

  void add_polygon(const PolygonSet& poly, bool subject) {
    for (const auto& c : poly.contours) {
      const std::size_t n = c.size();
      if (n < 3) continue;
      for (std::size_t i = 0, j = n - 1; i < n; j = i++)
        add_segment(c[j], c[i], subject);
    }
  }

  std::vector<ResultEdge> run() {
    std::vector<ResultEdge> result;
    while (!queue_.empty()) {
      SweepEvent* e = queue_.top();
      queue_.pop();
      if (e->left) {
        auto [it, inserted] = status_.insert(e);
        if (!inserted) continue;  // exactly duplicated segment: ignore
        e->pos_it = it;
        e->in_status = true;
        compute_flags(e, it);
        auto next = std::next(it);
        if (next != status_.end()) possibly_divide(e, *next);
        if (it != status_.begin()) possibly_divide(*std::prev(it), e);
      } else {
        SweepEvent* le = e->other;
        if (!le->in_status) continue;  // stale (already erased)
        auto it = le->pos_it;
        auto next = std::next(it);
        auto prev = it == status_.begin() ? status_.end() : std::prev(it);
        status_.erase(it);
        le->in_status = false;
        if (prev != status_.end() && next != status_.end())
          possibly_divide(*prev, *next);
        if (std::getenv("PSCLIP_TRACE"))
          std::fprintf(stderr,
                       "[m] edge (%.3f,%.3f)-(%.3f,%.3f) subj=%d inout=%d "
                       "other=%d rb=%d ra=%d\n",
                       le->p.x, le->p.y, e->p.x, e->p.y, (int)le->subject,
                       (int)le->in_out, (int)le->other_in_out,
                       (int)le->result_below, (int)le->result_above);
        if (le->contributes()) {
          // Direct the edge so that the result interior is on its left:
          // interior above => travel left-to-right.
          if (le->result_above)
            result.push_back({le->p, e->p});
          else
            result.push_back({e->p, le->p});
        }
      }
    }
    return result;
  }

 private:
  BoolOp op_;
  std::deque<SweepEvent> pool_;
  std::priority_queue<SweepEvent*, std::vector<SweepEvent*>, EventQueueCmp>
      queue_;
  std::set<SweepEvent*, bool (*)(SweepEvent*, SweepEvent*)> status_;

  SweepEvent* make_event() {
    pool_.emplace_back();
    return &pool_.back();
  }

  void add_segment(const Point& a, const Point& b, bool subject) {
    if (a == b) return;
    SweepEvent* ea = make_event();
    SweepEvent* eb = make_event();
    ea->p = a;
    eb->p = b;
    ea->other = eb;
    eb->other = ea;
    ea->subject = eb->subject = subject;
    if (event_before(ea, eb)) {
      ea->left = true;
    } else {
      eb->left = true;
    }
    queue_.push(ea);
    queue_.push(eb);
  }

  /// Flag conventions: e->in_out = the edge's OWN polygon interior lies
  /// just below the edge; e->other_in_out = the OTHER polygon's interior
  /// is present at the edge (its parity does not change across the edge,
  /// so below == above for it).
  void compute_flags(SweepEvent* e, decltype(status_)::iterator it) {
    bool own_below, other_at;
    if (it == status_.begin()) {
      own_below = false;
      other_at = false;
    } else {
      SweepEvent* prev = *std::prev(it);
      // The strip between prev and e: prev's own-polygon parity flips
      // across prev; the other polygon's does not.
      if (prev->subject == e->subject) {
        own_below = !prev->in_out;
        other_at = prev->other_in_out;
      } else {
        own_below = prev->other_in_out;
        other_at = !prev->in_out;
      }
    }
    e->in_out = own_below;
    e->other_in_out = other_at;

    // Result membership on either side (crossing the edge flips only the
    // own polygon's even-odd parity).
    const bool subj_below = e->subject ? own_below : other_at;
    const bool clip_below = e->subject ? other_at : own_below;
    const bool subj_above = e->subject ? !own_below : other_at;
    const bool clip_above = e->subject ? other_at : !own_below;
    e->result_below = geom::in_result(subj_below, clip_below, op_);
    e->result_above = geom::in_result(subj_above, clip_above, op_);
  }

  /// Subdivide segment `e` (a left event) at interior point p.
  void divide(SweepEvent* e, const Point& p) {
    // e.p ---- p ---- e.other.p  becomes two segments sharing p.
    SweepEvent* r = make_event();  // right end of the left half
    SweepEvent* l = make_event();  // left end of the right half
    r->p = p;
    r->subject = e->subject;
    r->left = false;
    l->p = p;
    l->subject = e->subject;
    l->left = true;
    // Guard against rounding inversions: if the new point would not sort
    // strictly between the endpoints, skip the division.
    if (!event_before(e, r) || !event_before(l, e->other)) return;
    r->other = e;
    l->other = e->other;
    e->other->other = l;
    e->other = r;
    queue_.push(r);
    queue_.push(l);
  }

  void possibly_divide(SweepEvent* e1, SweepEvent* e2) {
    const Point a1 = e1->p, a2 = e1->other->p;
    const Point b1 = e2->p, b2 = e2->other->p;
    const auto x = geom::segment_intersection(a1, a2, b1, b2);
    if (x.relation == geom::SegmentRelation::kProper) {
      divide_if_interior(e1, x.point);
      divide_if_interior(e2, x.point);
    } else if (x.relation == geom::SegmentRelation::kTouch) {
      // Endpoint of one segment in the interior of the other.
      divide_if_interior(e1, x.point);
      divide_if_interior(e2, x.point);
    }
    // Collinear overlaps are outside the general-position contract.
  }

  void divide_if_interior(SweepEvent* e, const Point& p) {
    if (p == e->p || p == e->other->p) return;
    divide(e, p);
  }
};

/// Reconnect directed boundary edges into rings: every vertex has balanced
/// in/out degree, so greedy Eulerian tracing closes each walk. Ring
/// structure at pinch points is arbitrary but region- and area-exact.
PolygonSet connect_edges(std::vector<ResultEdge> edges) {
  PolygonSet out;
  std::unordered_map<Point, std::vector<std::size_t>, geom::PointHash>
      outgoing;
  outgoing.reserve(edges.size() * 2);
  for (std::size_t i = 0; i < edges.size(); ++i)
    outgoing[edges[i].from].push_back(i);

  std::vector<bool> used(edges.size(), false);
  for (std::size_t seed = 0; seed < edges.size(); ++seed) {
    if (used[seed]) continue;
    geom::Contour ring;
    std::size_t cur = seed;
    const Point start = edges[seed].from;
    std::size_t guard = 0;
    while (!used[cur] && guard++ <= edges.size()) {
      used[cur] = true;
      ring.pts.push_back(edges[cur].from);
      const Point& nxt = edges[cur].to;
      if (nxt == start) break;
      auto it = outgoing.find(nxt);
      std::size_t next_edge = edges.size();
      if (it != outgoing.end()) {
        for (std::size_t cand : it->second) {
          if (!used[cand]) {
            next_edge = cand;
            break;
          }
        }
      }
      if (next_edge == edges.size()) break;  // open walk (degenerate input)
      cur = next_edge;
    }
    if (ring.pts.size() >= 3) {
      // Drop collinear interior vertices introduced by subdivision.
      geom::Contour packed;
      const std::size_t n = ring.pts.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Point& a = packed.pts.empty() ? ring.pts[(i + n - 1) % n]
                                            : packed.pts.back();
        const Point& v = ring.pts[i];
        const Point& b = ring.pts[(i + 1) % n];
        if (geom::orient2d(a, v, b) == 0.0 && !(a == v) &&
            geom::on_segment(a, b, v))
          continue;
        packed.pts.push_back(v);
      }
      if (packed.pts.size() >= 3) {
        packed.hole = geom::signed_area(packed) < 0.0;
        out.contours.push_back(std::move(packed));
      }
    }
  }
  return out;
}

/// Perturb exactly (and nearly) vertical edges, the transposed analogue of
/// geom::remove_horizontals for the x-directed sweep.
void remove_verticals(PolygonSet& p) {
  for (auto& c : p.contours) {
    const std::size_t n = c.size();
    const geom::BBox cb = geom::bounds(c);
    // Floored at one ULP of the contour's largest |x|: far from the origin
    // the relative step is below half an ULP, `cur.x += ...` rounds back to
    // prev.x, and the vertical edge reaches the sweep.
    const double xmag = std::fmax(std::fabs(cb.xmin), std::fabs(cb.xmax));
    const double step = std::fmax(std::max(cb.width(), 1.0) * 1e-9,
                                  std::nextafter(xmag, HUGE_VAL) - xmag);
    for (int pass = 0; pass < 64; ++pass) {
      bool changed = false;
      for (std::size_t i = 1; i <= n; ++i) {
        Point& prev = c[i - 1];
        Point& cur = c[i % n];
        if (std::fabs(prev.x - cur.x) < step) {
          cur.x = prev.x;
          const int salt =
              1 + static_cast<int>((static_cast<std::size_t>(pass) * 7 +
                                    i * 13) %
                                   17);
          cur.x += step * static_cast<double>(salt);
          changed = true;
        }
      }
      if (!changed) break;
    }
  }
}

}  // namespace

PolygonSet martinez_clip(const PolygonSet& subject, const PolygonSet& clip,
                         BoolOp op) {
  PolygonSet s = geom::cleaned(subject);
  PolygonSet c = geom::cleaned(clip);
  remove_verticals(s);
  remove_verticals(c);

  MartinezSweep sweep(op);
  sweep.add_polygon(s, /*subject=*/true);
  sweep.add_polygon(c, /*subject=*/false);
  return connect_edges(sweep.run());
}

}  // namespace psclip::seq
