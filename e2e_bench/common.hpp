#pragma once

// Shared pieces of the end-to-end harness: clocks, order statistics, the
// metric catalogue, output digests and the span recorder used by traced
// runs. Everything here is benchmark code; the library is only called
// through its public headers.

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "geom/polygon.hpp"

namespace e2e {

/// Run configuration, straight from the command line.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short runs for the smoke test (not used for numbers).
  bool smoke = false;
  std::string trace_out;  ///< Chrome trace path for traced runs
  std::string stamp;      ///< JSON object identifying the run
  unsigned threads = 1;   ///< pool workers (hardware concurrency)
};

// ---- clocks ---------------------------------------------------------------

double now_s();           ///< steady clock, seconds
double process_cpu_s();   ///< CPU of every thread of this process, seconds
double peak_rss_mb();     ///< ru_maxrss in MiB

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
inline double ms(double seconds) { return seconds * 1e3; }

/// Number of samples strictly above `threshold`.
std::size_t samples_above(const std::vector<double>& v, double threshold);

// ---- digests --------------------------------------------------------------

/// FNV-1a over the exact bytes of every contour (hole flag, vertex count,
/// coordinate bit patterns): equal digests mean byte-identical outputs.
std::uint64_t digest(const psclip::geom::PolygonSet& p);
std::uint64_t digest(const std::string& s);

// ---- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// in the order they are printed. BENCHMARK.json lists the same names.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// What one run reports: attempts, failures and metrics; the result line
/// is correct when nothing failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double v) { metrics[name] = v; }
  /// Record one correctness outcome: every check is an attempt.
  void check(bool ok) { tally(ok ? 1 : 0, ok ? 0 : 1); }
  /// Record `ok` successful and `bad` failed attempts.
  void tally(std::uint64_t ok, std::uint64_t bad) {
    attempted += ok + bad;
    failed += bad;
  }
  [[nodiscard]] double error_rate() const {
    return attempted ? static_cast<double>(failed) / attempted : 0.0;
  }
};

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for traced runs. Spans are recorded by the
/// harness around each call into a layer (and, for phases the library
/// reports as durations, synthesized inside their parent); they are kept
/// in memory and written as a Chrome trace when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< shared by every span of one job
    int tid = 0;
    double t0 = 0.0, t1 = 0.0;  ///< seconds on the steady clock
    bool derived = false;       ///< placed from a reported duration
  };

  /// Record a finished span; returns its id.
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    std::uint64_t request, double t0, double t1,
                    bool derived = false, int tid = 0);

  /// Self time of every span: its duration minus the part of it covered
  /// by its children. Keyed by span id.
  [[nodiscard]] std::map<std::uint64_t, double> self_times() const;

  /// Median over requests of the per-request summed self time of spans
  /// named `name` (0 for requests without such a span), in seconds.
  [[nodiscard]] double median_self(const std::string& name) const;
  /// Median over requests of the self time of spans *not* attributed to a
  /// layer: the root span's uncovered remainder.
  [[nodiscard]] double median_root_self() const;

  /// Write the spans plus `stamp` (a JSON object) as a Chrome trace.
  bool write_chrome(const std::string& path, const std::string& stamp) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace e2e
