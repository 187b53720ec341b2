#pragma once

#include <cstdint>
#include <list>
#include <vector>

#include "geom/polygon.hpp"

namespace psclip::seq {

/// Incremental store for output polygons under construction.
///
/// Vatti's algorithm grows each output contour from both ends as the sweep
/// ascends: a contributing *left* edge extends one end, a *right* edge the
/// other, and local maxima of the result join two partial contours (or
/// close one). This pool owns the vertex lists, supports O(1) end
/// extension, O(1)+redirect merging (paper Fig. 6 "merging partial output
/// polygons" at the sequential level), and tracks, per list end, which
/// sweep edge currently owns it so that the event machinery never needs
/// left/right bookkeeping of its own.
///
/// Edges are identified by caller-chosen int32 ids (the clippers use the
/// BoundTable edge index).
class OutPolyPool {
 public:
  /// Start a new partial contour at point p (a local minimum of the
  /// result). `front_edge` / `back_edge` are the edges that will extend
  /// the respective ends. Returns the poly id.
  std::int32_t create(const geom::Point& p, bool hole, std::int32_t front_edge,
                      std::int32_t back_edge);

  /// Start a new partial contour at p on the bottom scanline of a beam or
  /// band whose edges are already active there (seq::open_scanline): an
  /// exterior piece whose region lies above p. When partials merge, its
  /// exterior flag outranks one started at a local minimum on the same
  /// scanline (see close).
  std::int32_t create_on_scanline(const geom::Point& p,
                                  std::int32_t front_edge,
                                  std::int32_t back_edge);

  /// Append p to the end of `poly` owned by `edge`.
  void extend(std::int32_t poly, std::int32_t edge, const geom::Point& p);

  /// Append p to the end of `poly` owned by `edge`, then hand that end to
  /// `new_edge` (intermediate vertices and intersection continuations).
  void extend_reassign(std::int32_t poly, std::int32_t edge,
                       const geom::Point& p, std::int32_t new_edge);

  /// Hand the end of `poly` owned by `edge` to `new_edge` without adding a
  /// vertex.
  void reassign(std::int32_t poly, std::int32_t edge, std::int32_t new_edge);

  /// A resolved physical list end. Two simultaneous events on the same
  /// partial contour (its two ends crossing each other, which happens with
  /// self-intersecting inputs) must resolve both ends *before* mutating
  /// either, or the first owner reassignment aliases the second lookup.
  struct EndRef {
    std::int32_t poly = -1;
    bool front = false;
  };
  [[nodiscard]] EndRef locate_end(std::int32_t poly, std::int32_t edge) const;

  /// Append p to the resolved end and hand it to `new_edge`.
  void extend_reassign_end(EndRef ref, const geom::Point& p,
                           std::int32_t new_edge);

  /// Local maximum of the result at p: the ends owned by `edge_a` (in
  /// `poly_a`) and `edge_b` (in `poly_b`) meet. If both ends belong to the
  /// same contour it is closed; otherwise the two partial contours are
  /// concatenated through p and the absorbed id redirected.
  void close(std::int32_t poly_a, std::int32_t edge_a, std::int32_t poly_b,
             std::int32_t edge_b, const geom::Point& p);

  /// Follow merge redirections to the surviving id.
  [[nodiscard]] std::int32_t resolve(std::int32_t id) const;

  /// Number of poly records created (including absorbed ones).
  [[nodiscard]] std::size_t size() const { return polys_.size(); }

  /// Total vertices appended since the last reset() (splices conserve the
  /// count; reversals don't touch it). O(1) — the per-scanbeam budget
  /// checkpoint reads this to charge output growth preemptively, the only
  /// structure whose size is output-sensitive rather than input-bounded.
  [[nodiscard]] std::size_t total_vertices() const { return total_vertices_; }

  /// Approximate resident bytes: record array capacity plus list nodes
  /// (vertex + two links + allocator header per node).
  [[nodiscard]] std::size_t resident_bytes() const {
    return polys_.capacity() * sizeof(Poly) + total_vertices_ * kVertexBytes;
  }

  /// Estimated heap cost of one list-node vertex.
  static constexpr std::size_t kVertexBytes =
      sizeof(geom::Point) + 3 * sizeof(void*);

  /// Drop all poly records, retaining the record array's capacity — lets a
  /// pooled sweep scratch reuse the same OutPolyPool across runs.
  void reset() {
    polys_.clear();
    total_vertices_ = 0;
  }

  /// Pre-size the record array (the sweep reserves one slot per local
  /// minimum up front, the upper bound on contributing minima).
  void reserve(std::size_t n) { polys_.reserve(n); }

  /// Extract final contours: closed contours with >= 3 vertices,
  /// orientation normalized (exterior counter-clockwise, holes clockwise).
  /// Contours with |signed area| <= min_area are dropped.
  [[nodiscard]] geom::PolygonSet harvest(double min_area = 0.0) const;

 private:
  struct Poly {
    std::list<geom::Point> pts;
    bool hole = false;
    /// y of the minimum this partial started at; -inf for one opened on a
    /// scanline (create_on_scanline), which is lowest by construction.
    double min_y = 0.0;
    bool closed = false;
    std::int32_t redirect = -1;
    std::int32_t front_owner = -1;
    std::int32_t back_owner = -1;
  };
  std::vector<Poly> polys_;
  std::size_t total_vertices_ = 0;

  Poly& at(std::int32_t id) { return polys_[static_cast<std::size_t>(id)]; }
  /// True if `edge` owns the front end of `p` (asserts it owns some end).
  static bool owns_front(const Poly& p, std::int32_t edge);
};

}  // namespace psclip::seq
