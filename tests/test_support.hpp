#pragma once

// Shared helpers for the psclip test suite: deterministic random polygon
// construction (mirroring the paper's synthetic workloads) and the area /
// point-classification referees used by the differential tests.

#include <atomic>
#include <cmath>
#include <cstring>
#include <locale>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/area_oracle.hpp"
#include "geom/point.hpp"
#include "geom/point_in_polygon.hpp"
#include "geom/polygon.hpp"
#include "mt/stats.hpp"
#include "obs/trace.hpp"

namespace psclip::test {

/// Star-shaped simple polygon with jittered radii/angles; optionally
/// shuffled into a self-intersecting one.
inline geom::PolygonSet random_polygon(std::uint64_t seed, int n, double cx,
                                       double cy, double r,
                                       bool self_intersecting = false) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.3, 1.0);
  std::uniform_real_distribution<double> ang(0.0, 0.9 * 2.0 * M_PI / n);
  std::vector<geom::Point> ring;
  ring.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * i / n + ang(rng);
    const double rad = r * u(rng);
    ring.push_back({cx + rad * std::cos(a), cy + rad * std::sin(a)});
  }
  if (self_intersecting) {
    std::uniform_int_distribution<std::size_t> pick(0, ring.size() - 1);
    for (int s = 0; s < n / 4 + 1; ++s)
      std::swap(ring[pick(rng)], ring[pick(rng)]);
  }
  geom::PolygonSet p;
  p.add(std::move(ring));
  return p;
}

/// Relative-tolerance area agreement used by all differential tests.
inline bool areas_match(double got, double want, double tol = 1e-6) {
  return std::fabs(got - want) <= tol * (1.0 + std::fabs(want));
}

/// Monte-Carlo point-classification agreement between a clipper result and
/// the definition `in_result(pip(A), pip(B), op)`. Returns the fraction of
/// agreeing samples in [0, 1].
inline double pip_agreement(const geom::PolygonSet& a,
                            const geom::PolygonSet& b, geom::BoolOp op,
                            const geom::PolygonSet& result, int samples,
                            std::uint64_t seed) {
  geom::BBox box = geom::bounds(a);
  box.expand(geom::bounds(b));
  if (box.empty()) return 1.0;
  const double pad = 0.05 * std::max(box.width(), box.height());
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(box.xmin - pad, box.xmax + pad);
  std::uniform_real_distribution<double> uy(box.ymin - pad, box.ymax + pad);
  int agree = 0;
  for (int i = 0; i < samples; ++i) {
    const geom::Point p{ux(rng), uy(rng)};
    const bool want = geom::in_result(geom::point_in_polygon(p, a),
                                      geom::point_in_polygon(p, b), op);
    if (want == geom::point_in_polygon(p, result)) ++agree;
  }
  return static_cast<double>(agree) / samples;
}

/// Trace sink that sends every slab of the slab engines (mt::slab_clip,
/// mt::multiset_clip) to the kRetrySafe rung: begin_span throws on each
/// kRung span of the healthy rung, which the slab runner opens inside the
/// attempt's guarded region, so the healthy attempt fails before it starts
/// and the slab is retried on the materializing path with fresh scratch —
/// the configuration production runs after a slab fault. Everything else
/// is a no-op. Install it as the run's `trace_sink`; check the result with
/// all_slabs_retried. With a non-negative `limit` only the first `limit`
/// healthy attempts are refused.
class ForceRetrySink : public obs::TraceSink {
 public:
  explicit ForceRetrySink(int limit = -1) : limit_(limit) {}

  obs::SpanId begin_span(const char* name, obs::Cat cat,
                         obs::SpanId /*parent*/) override {
    if (cat == obs::Cat::kRung &&
        std::strcmp(name, mt::to_string(mt::Rung::kHealthy)) == 0 &&
        (limit_ < 0 || refused_.fetch_add(1) < limit_))
      throw std::runtime_error("ForceRetrySink: healthy rung refused");
    return obs::SpanId{1};
  }
  void end_span(obs::SpanId /*id*/) override {}
  void span_arg(obs::SpanId /*id*/, const char* /*key*/,
                std::int64_t /*value*/) override {}
  void add_counter(const char* /*name*/, std::int64_t /*delta*/) override {}
  void observe(const char* /*histogram*/, double /*seconds*/) override {}

 private:
  const int limit_;
  std::atomic<int> refused_{0};
};

/// Every slab of a ForceRetrySink run ended on kRetrySafe after exactly two
/// attempts (the refused healthy one and the retry).
inline bool all_slabs_retried(const mt::Alg2Stats& st) {
  for (const mt::DegradationReport& rep : st.degradation)
    if (rep.rung != mt::Rung::kRetrySafe || rep.attempts != 2) return false;
  return !st.degradation.empty();
}

/// Makes the global C++ locale write numbers as "12.345,5" (digits grouped
/// in threes by '.', decimal comma) for its lifetime, then restores the
/// previous global locale, also when an assertion ends the test early.
class ScopedCommaDecimalLocale {
 public:
  ScopedCommaDecimalLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimal))) {}
  ~ScopedCommaDecimalLocale() { std::locale::global(previous_); }
  ScopedCommaDecimalLocale(const ScopedCommaDecimalLocale&) = delete;
  ScopedCommaDecimalLocale& operator=(const ScopedCommaDecimalLocale&) =
      delete;

 private:
  struct CommaDecimal : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::locale previous_;
};

}  // namespace psclip::test
