#include "common.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "seq/bounds.hpp"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t samples_above(const std::vector<double>& v, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > threshold; }));
}

std::uint64_t digest(const psclip::geom::PolygonSet& p) {
  using psclip::seq::fnv1a;
  std::uint64_t h = psclip::seq::kFnvBasis;
  for (const auto& c : p.contours) {
    const std::uint64_t head[2] = {c.hole ? 1u : 0u, c.pts.size()};
    h = fnv1a(head, sizeof head, h);
    if (!c.pts.empty())
      h = fnv1a(c.pts.data(), c.pts.size() * sizeof(c.pts[0]), h);
  }
  return h;
}

std::uint64_t digest(const std::string& s) {
  return psclip::seq::fnv1a(s.data(), s.size(), psclip::seq::kFnvBasis);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_ms.p50", "ms"},     {"latency_ms.p90", "ms"},
      {"throughput_ops_s", "1/s"},  {"setup_s", "s"},
      {"peak_rss_mb", "MB"},        {"success_rate", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"geom.parse_ms", "ms"},
      {"geom.parse_mb_s", "MB/s"},
      {"geom.serialize_ms", "ms"},
      {"geom.serialize_mb_s", "MB/s"},
      {"geom.output_bytes", "bytes"},
      {"psclip.clip_ms", "ms"},
      {"psclip.self_ms", "ms"},
      {"psclip.cpu_ms", "ms"},
      {"psclip.parallelism", "ratio"},
      {"psclip.slab_share", "ratio"},
      {"psclip.auto_regret", "ratio"},
      {"psclip.auto_regret.16kv", "ratio"},
      {"psclip.auto_regret.24kv", "ratio"},
      {"psclip.slab_share.16kv", "ratio"},
      {"psclip.slab_share.24kv", "ratio"},
      {"mt.slabs", "count"},
      {"mt.partition_ms", "ms"},
      {"mt.partition_cpu_ms", "ms"},
      {"mt.clip_ms", "ms"},
      {"mt.clip_cpu_ms", "ms"},
      {"mt.merge_ms", "ms"},
      {"mt.cpu_inflation", "ratio"},
      {"mt.touched_edge_ratio", "ratio"},
      {"mt.load_imbalance", "ratio"},
      {"mt.worker_imbalance", "ratio"},
      {"mt.idle_ms", "ms"},
      {"mt.steals", "count"},
      {"mt.duplicates_removed", "count"},
      {"mt.degraded_slabs", "count"},
      {"mt.peak_arena_kb", "KiB"},
      {"seq.prepare_ms", "ms"},
      {"seq.bound_build_ms", "ms"},
      {"seq.schedule_ms", "ms"},
      {"seq.scanbeams", "count"},
      {"seq.intersections", "count"},
      {"seq.sorted_beam_rate", "ratio"},
      {"svc.queue_ms.p50", "ms"},
      {"svc.queue_ms.p90", "ms"},
      {"svc.run_ms.p50", "ms"},
      {"svc.run_ms.p90", "ms"},
      {"svc.dispatch_ms.p50", "ms"},
      {"svc.generator_lag_ms", "ms"},
      {"svc.backlog_max", "count"},
      {"svc.rejected", "count"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.cache_resident_mb", "MB"},
      {"svc.cache_evictions", "count"},
      {"svc.cache_speedup", "ratio"},
      {"bench.trace_overhead", "ms"},
      {"bench.unattributed_ms", "ms"},
      {"error_rate", "ratio"},
  };
  return defs;
}

std::uint64_t Tracer::add(const std::string& name, std::uint64_t parent,
                          std::uint64_t request, double t0, double t1,
                          bool derived, int tid) {
  std::lock_guard lk(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, tid, t0, t1, derived});
  return id;
}

std::map<std::uint64_t, double> Tracer::self_times() const {
  std::lock_guard lk(mu_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans_)
    if (s.parent) kids[s.parent].emplace_back(s.t0, s.t1);
  std::map<std::uint64_t, double> self;
  for (const Span& s : spans_) {
    auto& iv = kids[s.id];
    std::sort(iv.begin(), iv.end());
    // Measure of the union of child intervals, clipped to the parent.
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.t0);
      hi = std::min(hi, s.t1);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[s.id] = (s.t1 - s.t0) - covered;
  }
  return self;
}

double Tracer::median_self(const std::string& name) const {
  const auto self = self_times();
  std::lock_guard lk(mu_);
  std::map<std::uint64_t, double> per_req;
  for (const Span& s : spans_) {
    if (s.parent == 0) per_req.emplace(s.request, 0.0);
    if (s.name == name) per_req[s.request] += self.at(s.id);
  }
  std::vector<double> v;
  for (const auto& [req, t] : per_req) v.push_back(t);
  return median(std::move(v));
}

double Tracer::median_root_self() const {
  const auto self = self_times();
  std::lock_guard lk(mu_);
  std::vector<double> v;
  for (const Span& s : spans_)
    if (s.parent == 0) v.push_back(self.at(s.id));
  return median(std::move(v));
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& stamp) const {
  std::lock_guard lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  out << "{\"otherData\":" << stamp << ",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : spans_) {
    const auto layer = s.name.substr(0, s.name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu,\"derived\":%d}}",
                  first ? "" : ",\n", s.name.c_str(), layer.c_str(), s.tid,
                  (s.t0 - origin) * 1e6, (s.t1 - s.t0) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  s.derived ? 1 : 0);
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
