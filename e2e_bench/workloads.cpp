#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "data/gis_sim.hpp"
#include "data/rng.hpp"
#include "data/synthetic.hpp"
#include "parallel/timing.hpp"
#include "psclip.hpp"
#include "svc/clip_service.hpp"

namespace e2e {
namespace {

namespace geom = psclip::geom;
namespace mt = psclip::mt;
namespace par = psclip::par;
namespace seq = psclip::seq;
namespace svc = psclip::svc;
using geom::BoolOp;
using geom::PolygonSet;
using psclip::Engine;

/// Per-job values of named metrics; a metric's reported value is the
/// median over jobs.
using Sample = std::map<std::string, double>;

void set_medians(Result& r, const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> cols;
  for (const Sample& s : samples)
    for (const auto& [k, v] : s) cols[k].push_back(v);
  for (auto& [k, v] : cols) r.set(k, median(std::move(v)));
}

/// Zero every per-layer metric under `prefix`: the layer is not on this
/// workload's path (the prediction for it is "no change").
void zero_layer(Result& r, const std::string& prefix) {
  for (const MetricDef& m : per_layer_metrics())
    if (std::string(m.name).rfind(prefix, 0) == 0) r.set(m.name, 0.0);
}

/// Independent, reproducible seed for one role within a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t role) {
  psclip::data::Rng rng(seed * 1000003ull + role);
  return rng.next();
}

void sleep_until_s(double t) {
  using clock = std::chrono::steady_clock;
  std::this_thread::sleep_until(clock::time_point(
      std::chrono::duration_cast<clock::duration>(
          std::chrono::duration<double>(t))));
}

PolygonSet parse(const std::string& wkt) {
  psclip::Error err(psclip::ErrorCode::kParse, "");
  auto p = geom::from_wkt(wkt, &err);
  if (!p) throw err;
  return std::move(*p);
}

/// Layer-2 of a GIS overlay, moved by a seeded fraction of its extent: the
/// dataset generator is unseeded, the overlay geometry is not.
PolygonSet shifted(const PolygonSet& layer, std::uint64_t seed) {
  psclip::data::Rng rng(seed);
  const geom::BBox box = geom::bounds(layer);
  const geom::Point off{rng.uniform(-0.01, 0.01) * box.width(),
                        rng.uniform(-0.01, 0.01) * box.height()};
  return geom::transformed(layer, 1.0, off);
}

// ---- layer samples from the libraries' own out-parameters ------------------

Sample mt_sample(const mt::Alg2Stats& st, double input_edges,
                 double vatti_cpu_s) {
  double touched = 0, bound_ns = 0, sched_ns = 0, peak = 0, idle = 0;
  for (const mt::SlabLoad& s : st.slabs) {
    touched += static_cast<double>(s.touched_edges);
    bound_ns += static_cast<double>(s.bound_build_ns);
    sched_ns += static_cast<double>(s.schedule_ns);
    peak = std::max(peak, static_cast<double>(s.peak_arena_bytes));
  }
  for (const mt::WorkerLoad& w : st.workers) idle += w.idle_seconds;
  const mt::PhaseTimes& ph = st.phases;
  return {
      {"mt.slabs", static_cast<double>(st.slabs.size())},
      {"mt.partition_ms", ms(ph.partition)},
      {"mt.partition_cpu_ms", ms(ph.partition_cpu)},
      {"mt.clip_ms", ms(ph.clip)},
      {"mt.clip_cpu_ms", ms(ph.clip_cpu)},
      {"mt.merge_ms", ms(ph.merge)},
      {"mt.cpu_inflation", vatti_cpu_s > 0 ? ph.total_cpu() / vatti_cpu_s : 0},
      {"mt.touched_edge_ratio", input_edges > 0 ? touched / input_edges : 0},
      {"mt.load_imbalance", st.load_imbalance()},
      {"mt.worker_imbalance", st.worker_imbalance()},
      {"mt.idle_ms", ms(idle)},
      {"mt.steals", static_cast<double>(st.total_steals())},
      {"mt.duplicates_removed", static_cast<double>(st.duplicates_removed)},
      {"mt.degraded_slabs", static_cast<double>(st.degraded_slabs())},
      {"mt.peak_arena_kb", peak / 1024.0},
      {"seq.bound_build_ms", bound_ns * 1e-6},
      {"seq.schedule_ms", sched_ns * 1e-6},
  };
}

/// Sequential reference sweep of one input pair: its counters and CPU.
struct VattiProbe {
  PolygonSet out;
  seq::VattiStats stats;
  double cpu_s = 0;
};

VattiProbe vatti_probe(const PolygonSet& a, const PolygonSet& b, BoolOp op,
                       int reps) {
  VattiProbe p;
  std::vector<double> cpu;
  for (int i = 0; i < reps; ++i) {
    p.stats = {};
    par::ThreadCpuTimer t;
    p.out = seq::vatti_clip(a, b, op, &p.stats);
    cpu.push_back(t.seconds());
  }
  p.cpu_s = median(std::move(cpu));
  return p;
}

Sample seq_sample(const seq::VattiStats& s) {
  return {
      {"seq.scanbeams", static_cast<double>(s.scanbeams)},
      {"seq.intersections", static_cast<double>(s.intersections)},
      {"seq.sorted_beam_rate",
       s.scanbeams ? static_cast<double>(s.sorted_beams) / s.scanbeams : 0},
  };
}

/// Wall time of the seq::prepare_contour pass over both inputs (median of
/// three passes).
double prepare_ms(const PolygonSet& a, const PolygonSet& b) {
  seq::PreparedContour scratch;
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    for (const auto& c : a.contours) seq::prepare_contour(c, false, scratch);
    for (const auto& c : b.contours) seq::prepare_contour(c, true, scratch);
    t.push_back(now_s() - t0);
  }
  return ms(median(std::move(t)));
}

/// kAuto against both forced engines at two sizes either side of
/// psclip::kAutoSlabMinVertices: 16k and 24k input vertices.
void crossover_probe(const Config& cfg, par::ThreadPool& pool, Result& r) {
  const int reps = cfg.smoke ? 2 : 7;
  double worst = 0;
  for (const auto& [edges, tag] :
       {std::pair{8000, "16kv"}, std::pair{12000, "24kv"}}) {
    const auto p =
        psclip::data::synthetic_pair(sub_seed(cfg.seed, 300 + edges), edges);
    const auto time_one = [&](Engine e) {
      psclip::ClipOptions o;
      o.engine = e;
      o.pool = &pool;
      const double t0 = now_s();
      const PolygonSet out = psclip::clip(p.subject, p.clip, BoolOp::kUnion, o);
      return now_s() - t0;
    };
    std::vector<double> ta, tv, ts;
    time_one(Engine::kAuto);
    for (int i = 0; i < reps; ++i) {
      ta.push_back(time_one(Engine::kAuto));
      tv.push_back(time_one(Engine::kVatti));
      ts.push_back(time_one(Engine::kSlab));
    }
    const double regret =
        median(ta) / std::min(median(tv), median(ts));
    const std::size_t n = p.subject.num_vertices() + p.clip.num_vertices();
    r.set(std::string("psclip.auto_regret.") + tag, regret);
    r.set(std::string("psclip.slab_share.") + tag,
          psclip::resolve_engine(Engine::kAuto, n, pool.size()) ==
                  Engine::kSlab
              ? 1.0
              : 0.0);
    worst = std::max(worst, regret);
  }
  r.set("psclip.auto_regret", worst);
}

void write_trace(const Config& cfg, const Tracer& tracer) {
  if (cfg.trace_out.empty()) return;
  if (!tracer.write_chrome(cfg.trace_out, cfg.stamp))
    std::fprintf(stderr, "warning: could not write %s\n",
                 cfg.trace_out.c_str());
}

// ---- batch workloads: parse -> clip -> serialize, one job at a time ---------

struct BatchJob {
  std::string wkt_a, wkt_b;  ///< the two operands as WKT text
  BoolOp op = BoolOp::kIntersection;
  bool multiset = false;
  std::uint64_t ref = 0;  ///< digest of the output WKT, set by the gate
  VattiProbe vatti;       ///< sequential reference, set by the gate
};

PolygonSet clip_stage(const BatchJob& j, const PolygonSet& a,
                      const PolygonSet& b, par::ThreadPool& pool) {
  if (j.multiset) return mt::multiset_clip(a, b, j.op, pool);
  psclip::ClipOptions o;
  o.pool = &pool;
  return psclip::clip(a, b, j.op, o);
}

std::string run_job(const BatchJob& j, par::ThreadPool& pool) {
  const PolygonSet a = parse(j.wkt_a);
  const PolygonSet b = parse(j.wkt_b);
  return geom::to_wkt(clip_stage(j, a, b, pool));
}

/// Pool construction plus one untimed job, seven times; the last pool is
/// kept for the measurement.
std::unique_ptr<par::ThreadPool> batch_setup(const Config& cfg,
                                             const BatchJob& job,
                                             std::vector<double>& times) {
  std::unique_ptr<par::ThreadPool> pool;
  for (int rep = 0; rep < (cfg.smoke ? 1 : 7); ++rep) {
    pool.reset();
    const double t0 = now_s();
    pool = std::make_unique<par::ThreadPool>(cfg.threads);
    run_job(job, *pool);
    times.push_back(now_s() - t0);
  }
  return pool;
}

/// Correctness gate, untimed: output area against the sequential Vatti
/// clipper to 1e-6 relative. Records the output digest every timed job
/// must reproduce.
void batch_gate(const Config& cfg, BatchJob& j, par::ThreadPool& pool,
                Result& r) {
  bool ok = false;
  try {
    const PolygonSet a = parse(j.wkt_a);
    const PolygonSet b = parse(j.wkt_b);
    const PolygonSet out = clip_stage(j, a, b, pool);
    j.ref = digest(geom::to_wkt(out));
    j.vatti = vatti_probe(a, b, j.op, cfg.trace ? 3 : 1);
    const double want = geom::area(j.vatti.out);
    const double got = geom::area(out);
    ok = want > 0 && std::abs(got - want) <= 1e-6 * want;
    if (!ok)
      std::fprintf(stderr, "gate: area %.17g, sequential reference %.17g\n",
                   got, want);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gate: %s\n", e.what());
  }
  r.check(ok);
}

struct Timed {
  std::vector<double> latency;  ///< seconds, successful jobs
  double wall = 0;
};

/// Jobs back to back for at least `seconds` and `min_n` jobs (capped at
/// three times `seconds`); each output is hashed after its clock stops.
Timed batch_loop(const BatchJob& j, par::ThreadPool& pool, double seconds,
                 std::size_t min_n, Result& r) {
  Timed t;
  const double start = now_s();
  for (;;) {
    const double el = now_s() - start;
    if ((el >= seconds && t.latency.size() >= min_n) || el >= 3 * seconds)
      break;
    std::string out;
    bool ran = true;
    const double t0 = now_s();
    try {
      out = run_job(j, pool);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job: %s\n", e.what());
      ran = false;
    }
    const double t1 = now_s();
    if (ran) t.latency.push_back(t1 - t0);
    r.check(ran && digest(out) == j.ref);
  }
  t.wall = now_s() - start;
  return t;
}

/// One traced job: spans around each layer call, the engine's phases as
/// the clip span's children. Returns the job's layer sample.
Sample traced_job(const BatchJob& j, par::ThreadPool& pool, Tracer& tracer,
                  std::uint64_t req, const char* clip_span, Result& r,
                  double& latency) {
  const double t0 = now_s();
  const PolygonSet a = parse(j.wkt_a);
  const PolygonSet b = parse(j.wkt_b);
  const double t1 = now_s();
  const double cpu0 = process_cpu_s();
  mt::Alg2Stats st;
  bool have_mt = true;
  PolygonSet out;
  bool slab = false;
  seq::VattiStats vst;
  if (j.multiset) {
    out = mt::multiset_clip(a, b, j.op, pool, {}, &st);
  } else {
    // psclip::clip(kAuto) returns no stats; this is its dispatch, spelled
    // out so the engine's out-parameter can be read.
    const std::size_t n = a.num_vertices() + b.num_vertices();
    slab = psclip::resolve_engine(Engine::kAuto, n, pool.size()) ==
           Engine::kSlab;
    if (slab) {
      out = mt::slab_clip(a, b, j.op, pool, {}, &st);
    } else {
      out = seq::vatti_clip(a, b, j.op, &vst);
      have_mt = false;
    }
  }
  const double cpu = process_cpu_s() - cpu0;
  const double t2 = now_s();
  const std::string wkt = geom::to_wkt(out);
  const double t3 = now_s();
  latency = t3 - t0;
  r.check(digest(wkt) == j.ref);

  const std::uint64_t root = tracer.add("bench.job", 0, req, t0, t3);
  tracer.add("geom.parse", root, req, t0, t1);
  const std::uint64_t c = tracer.add(clip_span, root, req, t1, t2);
  if (have_mt) {
    double at = t1;
    for (const auto& [name, d] :
         {std::pair{"mt.partition", st.phases.partition},
          std::pair{"mt.clip", st.phases.clip},
          std::pair{"mt.merge", st.phases.merge}}) {
      const double end = std::min(at + d, t2);
      tracer.add(name, c, req, at, end, true);
      at = end;
    }
  }
  tracer.add("geom.serialize", root, req, t2, t3);

  const double in_bytes =
      static_cast<double>(j.wkt_a.size() + j.wkt_b.size());
  const double in_edges = static_cast<double>(a.num_vertices() + b.num_vertices());
  Sample s;
  if (have_mt) {
    s = mt_sample(st, in_edges, j.vatti.cpu_s);
  } else {
    s["seq.bound_build_ms"] = static_cast<double>(vst.bound_build_ns) * 1e-6;
    s["seq.schedule_ms"] = static_cast<double>(vst.schedule_ns) * 1e-6;
  }
  s["geom.parse_ms"] = ms(t1 - t0);
  s["geom.parse_mb_s"] = in_bytes / (t1 - t0) * 1e-6;
  s["geom.serialize_ms"] = ms(t3 - t2);
  s["geom.serialize_mb_s"] = static_cast<double>(wkt.size()) / (t3 - t2) * 1e-6;
  s["geom.output_bytes"] = static_cast<double>(wkt.size());
  s["psclip.clip_ms"] = ms(t2 - t1);
  s["psclip.cpu_ms"] = ms(cpu);
  s["psclip.parallelism"] = cpu / (t2 - t1);
  s["psclip.slab_share"] = slab ? 1.0 : 0.0;
  return s;
}

/// svc.* per-layer metrics from service traffic over the scale-0.1 GIS
/// layers, served on `pool` (defined with the svc_overlay workload).
void serve_layer(const Config& cfg, par::ThreadPool& pool, Tracer& tracer,
                 Result& r);

/// One unique job, repeated: the untraced run reports the end-to-end
/// metrics; the traced run measures untraced and traced halves and reports
/// the per-layer metrics. With `serve`, the traced run also measures the
/// svc layer (serve_layer); otherwise svc.* read 0.
Result run_batch(const Config& cfg, BatchJob job, const char* clip_span,
                 bool serve) {
  Result r;
  std::vector<double> setup;
  const auto pool = batch_setup(cfg, job, setup);
  batch_gate(cfg, job, *pool, r);
  const std::size_t min_n = cfg.smoke ? 10 : (cfg.trace ? 30 : 110);
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Timed t = batch_loop(job, *pool, untraced_s, min_n, r);
  std::fprintf(stderr, "%zu timed jobs in %.2f s, %zu above p90\n",
               t.latency.size(), t.wall,
               samples_above(t.latency, quantile(t.latency, 0.9)));
  if (!cfg.trace) {
    r.set("latency_ms.p50", ms(quantile(t.latency, 0.5)));
    r.set("latency_ms.p90", ms(quantile(t.latency, 0.9)));
    r.set("throughput_ops_s", static_cast<double>(t.latency.size()) / t.wall);
    r.set("setup_s", median(setup));
    r.set("peak_rss_mb", peak_rss_mb());
    return r;
  }

  Tracer tracer;
  std::vector<Sample> samples;
  std::vector<double> traced_latency;
  const double start = now_s();
  while ((now_s() - start < cfg.seconds / 2 || samples.size() < min_n) &&
         now_s() - start < 1.5 * cfg.seconds) {
    double lat = 0;
    samples.push_back(traced_job(job, *pool, tracer, samples.size() + 1,
                                 clip_span, r, lat));
    traced_latency.push_back(lat);
  }
  samples.push_back(seq_sample(job.vatti.stats));
  set_medians(r, samples);
  r.set("seq.prepare_ms", prepare_ms(parse(job.wkt_a), parse(job.wkt_b)));
  r.set("psclip.self_ms", ms(tracer.median_self(clip_span)));
  r.set("bench.trace_overhead",
        ms(median(traced_latency) - median(t.latency)));
  r.set("bench.unattributed_ms", ms(tracer.median_root_self()));
  crossover_probe(cfg, *pool, r);
  if (serve)
    serve_layer(cfg, *pool, tracer, r);
  else
    zero_layer(r, "svc.");
  write_trace(cfg, tracer);
  return r;
}

}  // namespace

Result run_pair_large(const Config& cfg) {
  const int edges = cfg.smoke ? 10000 : 24000;
  const auto p =
      psclip::data::synthetic_pair(sub_seed(cfg.seed, 1), edges);
  BatchJob j;
  j.wkt_a = geom::to_wkt(p.subject);
  j.wkt_b = geom::to_wkt(p.clip);
  j.op = BoolOp::kUnion;
  return run_batch(cfg, std::move(j), "psclip.clip", false);
}

Result run_gis_overlay(const Config& cfg) {
  const double scale = cfg.smoke ? 0.01 : 0.1;
  BatchJob j;
  j.wkt_a = geom::to_wkt(psclip::data::make_dataset(1, scale));
  j.wkt_b = geom::to_wkt(
      shifted(psclip::data::make_dataset(2, scale), sub_seed(cfg.seed, 2)));
  j.op = BoolOp::kIntersection;
  j.multiset = true;
  return run_batch(cfg, std::move(j), "mt.multiset_clip", true);
}

// ---- svc_overlay: open-loop ClipService traffic -----------------------------

namespace {

/// Offered rate the latency figures are taken at, and the latency limit
/// the capacity ladder holds p90 to.
constexpr double kNominalRps = 100.0;
constexpr double kLatencyLimitS = 0.100;
/// Capacity ladder: kLadderBase * kLadderStep^k requests/s, k < kLadderRungs.
constexpr double kLadderBase = 10.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 100;

struct SvcJob {
  PolygonSet subject;
  std::shared_ptr<const PolygonSet> clip;
  BoolOp op = BoolOp::kIntersection;
  bool multiset = false;
  std::uint64_t ref = 0;  ///< digest of the direct-call output
};

svc::ClipRequest make_request(const SvcJob& j) {
  svc::ClipRequest q;
  q.subject = j.subject;
  q.clip = *j.clip;
  q.op = j.op;
  q.multiset = j.multiset;
  return q;
}

/// The library call a client would make without the service, on the
/// service's pool.
PolygonSet direct(const SvcJob& j, par::ThreadPool& pool,
                  mt::Alg2Stats* stats = nullptr) {
  if (j.multiset) return mt::multiset_clip(j.subject, *j.clip, j.op, pool, {}, stats);
  psclip::ClipOptions o;
  o.pool = &pool;
  return psclip::clip(j.subject, *j.clip, j.op, o);
}

/// Unique jobs: multiset tiles first (64 neighbouring dataset-1 polygons
/// against the whole shared dataset-2 layer), then small unshared pairs
/// under kAuto cycling through all four operators. Requests are sized to
/// run for about 10 ms: with 3-ms requests (16-polygon tiles on the scale
/// 0.05 layer) the nominal-rate p50 moved 2x between runs on a shared
/// 4-vCPU host, because thread wake-up delays rivalled the work itself.
std::vector<SvcJob> svc_jobs(const Config& cfg, std::size_t& tiles) {
  const double scale = cfg.smoke ? 0.01 : 0.1;
  const std::size_t max_tiles = cfg.smoke ? 4 : 64;
  const std::size_t tile_polys = cfg.smoke ? 4 : 64;
  const std::size_t n_pairs = cfg.smoke ? 4 : 16;
  const int pair_edges = cfg.smoke ? 100 : 2000;
  const PolygonSet urban = psclip::data::make_dataset(1, scale);
  const auto layer =
      std::make_shared<const PolygonSet>(psclip::data::make_dataset(2, scale));
  std::vector<geom::Point> centers;
  for (const auto& c : urban.contours) {
    const geom::BBox b = geom::bounds(c);
    centers.push_back({(b.xmin + b.xmax) / 2, (b.ymin + b.ymax) / 2});
  }
  // Tiles: the urban polygons in row-major order of their centres, cut
  // into runs of tile_polys neighbours, so every seed draws from the same
  // cover of the layer.
  std::vector<std::size_t> order(centers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const geom::BBox ub = geom::bounds(urban);
  const double band = ub.height() / 8;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto ra = static_cast<int>((centers[a].y - ub.ymin) / band);
    const auto rb = static_cast<int>((centers[b].y - ub.ymin) / band);
    return ra != rb ? ra < rb : centers[a].x < centers[b].x;
  });
  std::vector<SvcJob> jobs;
  for (std::size_t at = 0; at < order.size() && jobs.size() < max_tiles; at += tile_polys) {
    SvcJob j;
    for (std::size_t i = at; i < std::min(at + tile_polys, order.size()); ++i)
      j.subject.add(urban.contours[order[i]]);
    j.clip = layer;
    j.multiset = true;
    jobs.push_back(std::move(j));
  }
  tiles = jobs.size();
  const BoolOp ops[4] = {BoolOp::kIntersection, BoolOp::kUnion,
                         BoolOp::kDifference, BoolOp::kXor};
  for (std::size_t i = 0; i < n_pairs; ++i) {
    auto p = psclip::data::synthetic_pair(sub_seed(cfg.seed, 400 + i), pair_edges);
    SvcJob j;
    j.subject = std::move(p.subject);
    j.clip = std::make_shared<const PolygonSet>(std::move(p.clip));
    j.op = ops[i % 4];
    jobs.push_back(std::move(j));
  }
  return jobs;
}

struct Arrival {
  double at = 0;  ///< seconds after the window opens
  std::size_t job = 0;
};

/// Seeded Poisson arrivals: 3/4 multiset tiles, 1/4 small pairs.
std::vector<Arrival> poisson(std::uint64_t seed, double rate, double seconds,
                             std::size_t tiles, std::size_t jobs) {
  psclip::data::Rng rng(seed);
  std::vector<Arrival> out;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= seconds) break;
    const std::size_t job = rng.unit() < 0.75
                                ? rng.index(tiles)
                                : tiles + rng.index(jobs - tiles);
    out.push_back({t, job});
  }
  return out;
}

struct LoopStats {
  std::vector<double> latency, queue, run, dispatch, lag;  ///< seconds
  std::size_t rejected = 0;    ///< refused at submit or at admission
  std::size_t errors = 0;      ///< other failures
  std::size_t mismatches = 0;  ///< outputs differing from the reference
  std::size_t backlog_max = 0;
  double drain = 0;  ///< last completion after the last due time, seconds
  double cpu = 0;    ///< process CPU over the window, seconds

  [[nodiscard]] std::size_t failed() const { return rejected + errors + mismatches; }
};

/// Threads that wait on outstanding futures, oldest first. Each blocks on
/// one future, so a completion is timestamped when it happens without any
/// polling; only beyond this many outstanding requests (deep overload) is a
/// completion seen late.
constexpr int kWaiters = 8;

/// Drive `sched` through submit_async from this thread while kWaiters
/// threads timestamp the completions. Latency runs from the due time, so a
/// late generator or a stall charges every request it delays. Each output
/// is hashed after its completion is timestamped.
LoopStats open_loop(svc::ClipService& service, const std::vector<SvcJob>& jobs,
                    const std::vector<Arrival>& sched, Tracer* tracer) {
  struct Pending {
    std::future<svc::ClipResult> fut;
    double due = 0;
    std::size_t job = 0, req = 0;
  };
  LoopStats st;                  // waiter-side fields guarded by mu
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> incoming;  // guarded by mu
  bool gen_done = false;         // guarded by mu
  std::atomic<std::size_t> finished{0};
  double last_done = 0;          // guarded by mu

  const auto waiter = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] { return gen_done || !incoming.empty(); });
        if (incoming.empty()) return;
        p = std::move(incoming.front());
        incoming.pop_front();
      }
      p.fut.wait();
      const double done = now_s();
      finished.fetch_add(1);
      try {
        svc::ClipResult res = p.fut.get();
        const bool same = digest(res.output) == jobs[p.job].ref;
        const double lat = done - p.due;
        if (tracer) {
          const double run0 = done - res.run_seconds;
          const double q0 = run0 - res.queue_seconds;
          const std::uint64_t root =
              tracer->add("svc.request", 0, p.req, p.due, done);
          tracer->add("svc.queue", root, p.req, q0, run0, true, 1);
          tracer->add("svc.run", root, p.req, run0, done, true, 1);
        }
        std::lock_guard lk(mu);
        st.latency.push_back(lat);
        st.queue.push_back(res.queue_seconds);
        st.run.push_back(res.run_seconds);
        st.dispatch.push_back(lat - res.queue_seconds - res.run_seconds);
        if (!same) ++st.mismatches;
        last_done = std::max(last_done, done);
      } catch (const psclip::Error& e) {
        std::lock_guard lk(mu);
        ++(e.code() == psclip::ErrorCode::kResource ? st.rejected : st.errors);
      } catch (const std::exception&) {
        std::lock_guard lk(mu);
        ++st.errors;
      }
    }
  };
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) waiters.emplace_back(waiter);

  const double cpu0 = process_cpu_s();
  const double t_start = now_s() + 0.005;
  std::size_t gen_rejected = 0;
  std::vector<double> lag;
  std::size_t backlog_max = 0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const double due = t_start + sched[i].at;
    sleep_until_s(due);
    svc::ClipRequest req = make_request(jobs[sched[i].job]);
    lag.push_back(now_s() - due);
    try {
      auto fut = service.submit_async(std::move(req));
      std::lock_guard lk(mu);
      incoming.push_back({std::move(fut), due, sched[i].job, i + 1});
    } catch (const psclip::Error&) {
      ++gen_rejected;
    }
    cv.notify_one();
    backlog_max = std::max(backlog_max, i + 1 - gen_rejected - finished.load());
  }
  {
    std::lock_guard lk(mu);
    gen_done = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  st.lag = std::move(lag);
  st.backlog_max = backlog_max;
  st.rejected += gen_rejected;
  st.cpu = process_cpu_s() - cpu0;
  if (!sched.empty()) st.drain = last_done - (t_start + sched.back().at);
  return st;
}

/// Service stack; the service is declared last so it is destroyed first.
struct SvcStack {
  std::unique_ptr<par::ThreadPool> pool;
  std::unique_ptr<svc::ClipService> service;
};

/// Service construction plus an untimed pass over every unique job (the
/// cache fills, dispatcher threads start).
void warm(svc::ClipService& service, const std::vector<SvcJob>& jobs) {
  for (const SvcJob& j : jobs) service.submit(make_request(j));
  service.submit_async(make_request(jobs.back())).get();
}

/// Highest ladder rung whose p90 stays within the latency limit with no
/// failure and no backlog left beyond the limit, by bisection over the
/// fixed ladder. Returns requests/s.
double capacity(const Config& cfg, svc::ClipService& service,
                const std::vector<SvcJob>& jobs, std::size_t tiles,
                double budget_s, Result& r) {
  const auto rate = [](int k) { return kLadderBase * std::pow(kLadderStep, k); };
  const int probes = 7;
  const auto probe = [&](int k) {
    const double secs = std::max({budget_s / probes, 110.0 / rate(k), 0.3});
    const auto sched = poisson(sub_seed(cfg.seed, 1000 + k), rate(k), secs,
                               tiles, jobs.size());
    const LoopStats st = open_loop(service, jobs, sched, nullptr);
    // Refusals under overload mark the rung as failed; wrong outputs and
    // other errors are failures of the run.
    r.tally(st.latency.size() - st.mismatches, st.errors + st.mismatches);
    const double p90 = quantile(st.latency, 0.9);
    const bool pass = st.failed() == 0 && p90 <= kLatencyLimitS &&
                      st.drain <= kLatencyLimitS;
    std::fprintf(stderr, "ladder %6.1f/s: p90 %.2f ms drain %.2f ms refused %zu %s\n",
                 rate(k), ms(p90), ms(st.drain), st.rejected, pass ? "pass" : "fail");
    return std::pair{pass, static_cast<double>(st.latency.size()) / secs};
  };
  int lo = 0, hi = kLadderRungs;  // rung lo passes (checked below), hi fails
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    (probe(mid).first ? lo : hi) = mid;
  }
  if (lo == 0) {
    const auto [pass, done_rate] = probe(0);
    if (!pass) return done_rate;
  }
  return rate(lo);
}

/// Gate: every unique request's service output is byte-identical to the
/// direct library call on the same pool; records the reference digests.
void svc_gate(std::vector<SvcJob>& jobs, svc::ClipService& service,
              par::ThreadPool& pool, Result& r) {
  for (SvcJob& j : jobs) {
    bool ok = false;
    try {
      j.ref = digest(direct(j, pool));
      ok = digest(service.submit(make_request(j)).output) == j.ref;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gate: %s\n", e.what());
    }
    r.check(ok);
  }
}

/// svc.* metrics: `sched` replayed with spans through `service` (cache on),
/// then through a cache-off service on the same pool for the cache
/// contrast. Returns the traced replay; the cache-off replay's outcomes are
/// tallied into `r` here.
LoopStats svc_layer(svc::ClipService& service, par::ThreadPool& pool,
                    const std::vector<SvcJob>& jobs,
                    const std::vector<Arrival>& sched, Tracer& tracer,
                    Result& r) {
  svc::PreparedCache& cache = *service.cache();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses(), e0 = cache.evictions();
  LoopStats traced = open_loop(service, jobs, sched, &tracer);
  const double hits = static_cast<double>(cache.hits() - h0);
  const double lookups = hits + static_cast<double>(cache.misses() - m0);
  r.set("svc.cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
  r.set("svc.cache_evictions", static_cast<double>(cache.evictions() - e0));
  r.set("svc.cache_resident_mb", static_cast<double>(cache.resident_bytes()) / (1 << 20));
  r.set("svc.queue_ms.p50", ms(quantile(traced.queue, 0.5)));
  r.set("svc.queue_ms.p90", ms(quantile(traced.queue, 0.9)));
  r.set("svc.run_ms.p50", ms(quantile(traced.run, 0.5)));
  r.set("svc.run_ms.p90", ms(quantile(traced.run, 0.9)));
  r.set("svc.dispatch_ms.p50", ms(quantile(traced.dispatch, 0.5)));
  r.set("svc.generator_lag_ms", ms(quantile(traced.lag, 0.9)));
  r.set("svc.backlog_max", static_cast<double>(traced.backlog_max));
  r.set("svc.rejected", static_cast<double>(traced.rejected));

  svc::ServiceOptions off;
  off.enable_cache = false;
  svc::ClipService uncached(pool, off);
  warm(uncached, jobs);
  const LoopStats st = open_loop(uncached, jobs, sched, nullptr);
  r.tally(st.latency.size() - st.mismatches, st.failed());
  const double cached_p50 = quantile(traced.run, 0.5);
  r.set("svc.cache_speedup",
        cached_p50 > 0 ? quantile(st.run, 0.5) / cached_p50 : 0);
  return traced;
}

void serve_layer(const Config& cfg, par::ThreadPool& pool, Tracer& tracer,
                 Result& r) {
  std::size_t tiles = 0;
  std::vector<SvcJob> jobs = svc_jobs(cfg, tiles);
  svc::ClipService service(pool);
  warm(service, jobs);
  svc_gate(jobs, service, pool, r);
  const auto sched = poisson(sub_seed(cfg.seed, 7), cfg.smoke ? 50.0 : kNominalRps,
                             cfg.seconds / 4, tiles, jobs.size());
  const LoopStats traced = svc_layer(service, pool, jobs, sched, tracer, r);
  r.tally(traced.latency.size() - traced.mismatches, traced.failed());
}

}  // namespace

Result run_svc_overlay(const Config& cfg) {
  Result r;
  std::size_t tiles = 0;
  std::vector<SvcJob> jobs = svc_jobs(cfg, tiles);

  std::vector<double> setup;
  SvcStack stack;
  for (int rep = 0; rep < (cfg.smoke ? 1 : 7); ++rep) {
    stack.service.reset();
    stack.pool.reset();
    const double t0 = now_s();
    stack.pool = std::make_unique<par::ThreadPool>(cfg.threads);
    stack.service = std::make_unique<svc::ClipService>(*stack.pool);
    warm(*stack.service, jobs);
    setup.push_back(now_s() - t0);
  }
  par::ThreadPool& pool = *stack.pool;

  svc_gate(jobs, *stack.service, pool, r);

  const double rate = cfg.smoke ? 50.0 : kNominalRps;
  const double window = cfg.trace ? cfg.seconds / 3 : cfg.seconds / 2;
  const auto sched = poisson(sub_seed(cfg.seed, 7), rate, window, tiles, jobs.size());
  const auto account = [&](const LoopStats& st) {
    r.tally(st.latency.size() - st.mismatches, st.failed());
  };
  const LoopStats nominal = open_loop(*stack.service, jobs, sched, nullptr);
  account(nominal);
  std::fprintf(stderr,
               "%zu requests at %.0f/s, %zu above p90; p50 run %.3f ms, "
               "queue %.3f ms, dispatch %.3f ms, generator lag %.3f ms\n",
               nominal.latency.size(), rate,
               samples_above(nominal.latency, quantile(nominal.latency, 0.9)),
               ms(quantile(nominal.run, 0.5)), ms(quantile(nominal.queue, 0.5)),
               ms(quantile(nominal.dispatch, 0.5)), ms(quantile(nominal.lag, 0.5)));

  if (!cfg.trace) {
    r.set("latency_ms.p50", ms(quantile(nominal.latency, 0.5)));
    r.set("latency_ms.p90", ms(quantile(nominal.latency, 0.9)));
    r.set("setup_s", median(setup));
    // Read before the ladder, whose deliberate overload would set it.
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("throughput_ops_s",
          capacity(cfg, *stack.service, jobs, tiles, cfg.seconds / 2, r));
    return r;
  }

  Tracer tracer;
  const LoopStats traced = svc_layer(*stack.service, pool, jobs, sched, tracer, r);
  account(traced);
  double run_sum = 0;
  for (double x : traced.run) run_sum += x;
  r.set("psclip.clip_ms", ms(quantile(traced.run, 0.5)));
  r.set("psclip.self_ms", 0.0);
  r.set("psclip.cpu_ms", traced.run.empty() ? 0 : ms(traced.cpu / traced.run.size()));
  r.set("psclip.parallelism", run_sum > 0 ? traced.cpu / run_sum : 0);
  r.set("bench.trace_overhead",
        ms(quantile(traced.latency, 0.5) - quantile(nominal.latency, 0.5)));
  r.set("bench.unattributed_ms", ms(tracer.median_root_self()));

  // Engine-level layers, from the direct calls' out-parameters.
  std::vector<Sample> samples;
  std::size_t pairs = 0, slab_pairs = 0;
  for (const SvcJob& j : jobs) {
    const VattiProbe v = vatti_probe(j.subject, *j.clip, j.op, 1);
    Sample s = seq_sample(v.stats);
    if (j.multiset) {
      mt::Alg2Stats st;
      direct(j, pool, &st);
      s.merge(mt_sample(st, static_cast<double>(j.subject.num_vertices() +
                                                j.clip->num_vertices()),
                        v.cpu_s));
      s["seq.prepare_ms"] = prepare_ms(j.subject, *j.clip);
    } else {
      ++pairs;
      if (psclip::resolve_engine(Engine::kAuto,
                                 j.subject.num_vertices() + j.clip->num_vertices(),
                                 pool.size()) == Engine::kSlab)
        ++slab_pairs;
    }
    samples.push_back(std::move(s));
  }
  set_medians(r, samples);
  r.set("psclip.slab_share", pairs ? static_cast<double>(slab_pairs) / pairs : 0);
  crossover_probe(cfg, pool, r);
  zero_layer(r, "geom.");
  write_trace(cfg, tracer);
  return r;
}

}  // namespace e2e
