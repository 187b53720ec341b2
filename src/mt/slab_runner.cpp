#include "mt/slab_runner.hpp"

#include <exception>
#include <limits>
#include <new>

#include "error.hpp"
#include "parallel/fault.hpp"
#include "parallel/work_steal.hpp"

namespace psclip::mt {
namespace {

/// Record the in-flight exception's taxonomy code and message into a slab's
/// degradation report. Must be called from inside a catch block.
void classify_failure(DegradationReport& rep) {
  try {
    throw;
  } catch (const Error& e) {
    rep.cause = e.code();
    rep.message = e.what();
  } catch (const std::bad_alloc&) {
    rep.cause = ErrorCode::kResource;
    rep.message = "std::bad_alloc";
  } catch (const std::exception& e) {
    rep.cause = ErrorCode::kSlabFailure;
    rep.message = e.what();
  } catch (...) {
    rep.cause = ErrorCode::kSlabFailure;
    rep.message = "unknown exception";
  }
}

}  // namespace

struct SlabRunner::SlabOut {
  SlabWork work;
  DegradationReport report;
  int worker = -1;         ///< pool worker that ran the slab (-1 = caller)
  bool done = false;       ///< ladder walk finished (vs. lost to a throw)
  bool exhausted = false;  ///< every ladder rung failed or was gated off
};

// One attempt at one slab on one rung. Throws on any failure — injected
// faults, resource exhaustion, or a non-finite coordinate caught by the
// post-check — and the next rung starts from a reset SlabWork.
void SlabRunner::attempt(const SlabJob& job, std::size_t t, Rung rung,
                         SlabWork& w) {
  par::gov::checkpoint_now();
  w = SlabWork{};
  // Memory budget (DESIGN.md §11): the attempt holds a charge for the
  // scratch it grows, raised by the engine as it builds the slab and
  // released when the attempt ends (success or unwind). Concurrent attempts
  // therefore charge the sum of their live scratch.
  par::gov::ScopedCharge charge;
  // Only the healthy rung borrows the worker arena; kRetrySafe runs on
  // fresh scratch, shedding whatever state a fault may have corrupted.
  SlabArena* arena = rung == Rung::kHealthy ? &worker_arena() : nullptr;
  job.attempt(t, arena, charge, w);
  if (arena) {
    if (par::fault::corrupt(par::fault::Site::kArena)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      w.result.add({{nan, nan}, {0.0, 0.0}, {1.0, 1.0}});
    }
    w.load.peak_arena_bytes =
        static_cast<std::int64_t>(arena->resident_bytes());
  }
  if (!geom::is_finite(w.result))
    throw Error(ErrorCode::kNonFinite, "non-finite vertex in " +
                                           std::string(names_.slab) + " " +
                                           std::to_string(t) + " output");
  if (sink_) sink_->observe(metric("slab_clip_seconds").c_str(),
                            w.load.seconds);
}

// Walk one slab down the per-slab rungs (kHealthy, then kRetrySafe)
// starting at `first`. Records rung reached / attempt count / first cause
// in so.report; flags the slab exhausted when no rung succeeded. Throws
// only if the trace sink throws while a failed attempt is being recorded.
void SlabRunner::run_ladder(const SlabJob& job, std::size_t t, SlabOut& so,
                            Rung first) {
  bool recorded = !so.report.message.empty();
  for (const Rung rung : {Rung::kHealthy, Rung::kRetrySafe}) {
    if (rung < first) continue;
    // Governance gate before burning a rung: a cancelled request, an
    // expired deadline, or a *sticky* blown budget (memory still retained
    // over the limit) makes every further attempt hopeless — time and
    // memory lost in this slab are lost globally, unlike the slab-local
    // faults the ladder exists for. A transient budget failure (e.g. an
    // allocation spike released with its attempt) passes this gate and
    // gets its retry on the next rung, preserving byte-identical recovery.
    try {
      par::gov::checkpoint_now();
    } catch (...) {
      if (!recorded) classify_failure(so.report);
      break;
    }
    ++so.report.attempts;
    // One kRung span per attempt, named after the rung; nests under the
    // enclosing slab span (same thread, implicit parent). Opened inside the
    // guarded region: a sink that throws fails this attempt like any fault
    // and the slab moves down the ladder.
    obs::ScopedSpan rung_span;
    try {
      rung_span = obs::ScopedSpan(sink_, to_string(rung), obs::Cat::kRung);
      rung_span.arg("rung", static_cast<std::int64_t>(rung));
      attempt(job, t, rung, so.work);
      so.report.rung = rung;
      return;
    } catch (...) {
      rung_span.arg("failed", 1);
      if (!recorded) {
        classify_failure(so.report);
        recorded = true;
      }
    }
  }
  so.work.result = geom::PolygonSet{};  // a failed attempt may leave debris
  so.exhausted = true;
}

void SlabRunner::run_slab(const SlabJob& job, std::size_t t, SlabOut& so,
                          Rung first, obs::SpanId parent) {
  so.worker = pool_.current_worker();  // -1 on a thread outside the pool
  // The slab span parents to the clip-phase span *explicitly*: the phase
  // span lives on the calling thread while slab tasks run on whichever
  // worker steals them, so implicit (same-thread) nesting cannot link them.
  obs::ScopedSpan slab_span(sink_, names_.slab, obs::Cat::kSlab, parent);
  slab_span.arg("slab", static_cast<std::int64_t>(t));
  slab_span.arg("worker", so.worker);
  // Deterministic fault key: a plan keyed on slab index t fires for this
  // slab no matter which worker the scheduler hands it to.
  par::fault::ScopedKey key(t);
  // Attempts are counted per rung walked; a recovered lost task arrives
  // with the aborted task attempt already counted.
  if (first == Rung::kHealthy) so.report.attempts = 0;
  run_ladder(job, t, so, first);
  // Set only once the ladder has returned: a slab whose walk was cut short
  // by a throw stays not-done, so run() recovers it instead of dropping it.
  so.done = true;
  slab_span.arg("rung", static_cast<std::int64_t>(so.report.rung));
  slab_span.arg("attempts", static_cast<std::int64_t>(so.report.attempts));
  slab_span.arg("peak_arena_bytes", so.work.load.peak_arena_bytes);
  if (so.exhausted) slab_span.arg("exhausted", 1);
}

geom::PolygonSet SlabRunner::run(const SlabJob& job, Alg2Stats* stats) {
  const std::size_t nslabs = job.extents.size();
  if (nslabs == 0) {
    if (stats) *stats = Alg2Stats{};
    return {};
  }
  const double t_setup = setup_timer_.seconds();
  const double t_setup_cpu = setup_cpu_timer_.seconds();
  par::WallTimer phase_timer;
  std::vector<SlabOut> outs(nslabs);

  // One stealable task per slab. Every worker starts with its round-robin
  // share; whoever drains its deque first steals half of a busy worker's
  // queued slabs, so oversubscribed decompositions (nslabs > pool size)
  // self-balance without any cost model. The decomposition is fixed before
  // scheduling and outs[] is indexed by slab, so the result is
  // byte-identical regardless of which worker runs which slab.
  const std::vector<par::StealStats> steal_before = pool_.steal_stats();
  obs::ScopedSpan clip_span(sink_, names_.clip, obs::Cat::kPhase);
  const obs::SpanId clip_id = clip_span.id();
  par::TaskGroup group(pool_);
  for (std::size_t t = 0; t < nslabs; ++t)
    group.run(
        [&, t] { run_slab(job, t, outs[t], Rung::kHealthy, clip_id); });
  PartialReport partial;
  bool whole_input = false;
  try {
    group.wait();
  } catch (...) {
    // A fault fired in the scheduler wrapper itself, a governance trip
    // hit its entry checkpoint, or the trace sink threw outside an attempt
    // (slab span): TaskGroup aggregated it into one exception and skipped
    // not-yet-started tasks. Recover every lost slab here on the calling
    // thread, starting one rung down the ladder (a governance trip makes
    // each one stop at the ladder gate).
    DegradationReport group_rep;
    classify_failure(group_rep);
    group_rep.attempts = 1;  // the task attempt the group aborted
    for (std::size_t t = 0; t < nslabs; ++t)
      if (!outs[t].done) {
        outs[t].report = group_rep;
        run_slab(job, t, outs[t], Rung::kRetrySafe, clip_id);
      }
  }
  // Exhausted slabs split two ways. Governance-exhausted slabs (the
  // ladder gate tripped on cancel/deadline/budget) must NOT reach the
  // whole-input fallback — recomputing everything sequentially is the
  // most expensive possible response to "stop spending resources". They
  // either become a partial result (allow_partial) or fail the request
  // with the precise governance code. Only fault-exhausted slabs (every
  // rung genuinely failed) take the whole-input rung.
  const DegradationReport* gov_first = nullptr;
  bool fault_exhausted = false;
  for (const SlabOut& so : outs) {
    if (!so.exhausted) continue;
    if (!is_governance(so.report.cause))
      fault_exhausted = true;
    else if (!gov_first)
      gov_first = &so.report;
  }
  if (gov_first && !allow_partial_) {
    // Prefer the live token state (clean message); fall back to the
    // recorded first governance failure (e.g. a transient budget trip
    // whose sticky state has since cleared).
    par::gov::rethrow_if_stopped();
    throw Error(gov_first->cause, gov_first->message);
  }
  if (gov_first) {
    partial.partial = true;
    partial.cause = gov_first->cause;
    partial.message = gov_first->message;
    for (std::size_t t = 0; t < nslabs; ++t) {
      SlabOut& so = outs[t];
      if (!so.exhausted) continue;
      so.report.rung = Rung::kPartialResult;
      const auto [y_lo, y_hi] = job.extents[t];
      if (!partial.missing.empty() && partial.missing.back().last + 1 == t) {
        partial.missing.back().last = t;
        partial.missing.back().y_hi = y_hi;
      } else {
        partial.missing.push_back({t, t, y_lo, y_hi});
      }
    }
  } else if (fault_exhausted) {
    // Final rung: abandon the slab decomposition and recompute the whole
    // request sequentially. Runs keyless so slab-keyed fault plans cannot
    // follow the computation here; a fault that still fires (kAnyKey plan
    // with shots left) means nothing can produce output, and propagates.
    obs::ScopedSpan whole_span(sink_, to_string(Rung::kWholeInput),
                               obs::Cat::kRung);
    whole_span.arg("rung", static_cast<std::int64_t>(Rung::kWholeInput));
    par::fault::ScopedKey key(par::fault::kNoKey);
    geom::PolygonSet whole = job.whole_input();
    for (SlabOut& so : outs) {
      so.work.result = geom::PolygonSet{};
      so.report.rung = Rung::kWholeInput;
    }
    outs[0].work.result = std::move(whole);
    whole_input = true;
  }
  const double t_clip = phase_timer.seconds();

  // Per-slab and per-worker record. Worker slot i < pool size is pool
  // worker i, the last slot is the calling thread (which helps while
  // waiting). Steal and idle numbers are pool-counter deltas, attributable
  // to this run only when the pool is not shared with concurrent work.
  Alg2Stats st;
  st.workers.assign(pool_.size() + 1, WorkerLoad{});
  const std::vector<par::StealStats> steal_after = pool_.steal_stats();
  std::uint64_t tasks_stolen = 0;
  for (unsigned i = 0; i < pool_.size(); ++i) {
    WorkerLoad& w = st.workers[i];
    w.steals = steal_after[i].steals - steal_before[i].steals;
    w.tasks_stolen = steal_after[i].tasks_stolen - steal_before[i].tasks_stolen;
    w.idle_seconds = steal_after[i].idle_seconds - steal_before[i].idle_seconds;
    tasks_stolen += w.tasks_stolen;
  }
  double partition_cpu = 0.0, clip_cpu = 0.0;
  for (SlabOut& so : outs) {
    st.slabs.push_back(so.work.load);
    st.degradation.push_back(so.report);
    partition_cpu += so.work.partition_cpu;
    clip_cpu += so.work.load.cpu_seconds;
    WorkerLoad& w = st.workers[so.worker >= 0
                                   ? static_cast<std::size_t>(so.worker)
                                   : pool_.size()];
    ++w.slab_jobs;
    w.busy_seconds += so.work.partition_seconds + so.work.load.seconds;
  }
  const auto steals = static_cast<std::int64_t>(st.total_steals());
  clip_span.arg("steals", steals);
  clip_span.arg("tasks_stolen", static_cast<std::int64_t>(tasks_stolen));
  clip_span.end();

  // Step 8 (sequential in the paper): concatenate the per-slab outputs,
  // then the engine's optional duplicate removal. merge_cpu is measured
  // with the thread CPU clock, not copied from the wall section: the merge
  // runs on the caller only, but wall time still charges any time the
  // caller was descheduled while workers wound down.
  phase_timer.reset();
  obs::ScopedSpan merge_span(sink_, names_.merge, obs::Cat::kPhase);
  par::ThreadCpuTimer merge_cpu_timer;
  geom::PolygonSet out;
  for (SlabOut& so : outs)
    for (auto& c : so.work.result.contours)
      out.contours.push_back(std::move(c));
  st.duplicates_removed = job.dedup && !whole_input ? job.dedup(out) : 0;
  st.output_contours = static_cast<std::int64_t>(out.num_contours());
  // Fig. 9's categories, in two consistent unit systems (see PhaseTimes):
  // wall = the calling thread's sections (setup / parallel region /
  // merge); cpu = time actually spent in the phase, summed across threads
  // (setup on the caller plus each slab's own partition step).
  st.phases.partition = t_setup;
  st.phases.clip = t_clip;
  st.phases.merge = phase_timer.seconds();
  st.phases.partition_cpu = t_setup_cpu + partition_cpu;
  st.phases.clip_cpu = clip_cpu;
  st.phases.merge_cpu = merge_cpu_timer.seconds();
  st.partial = std::move(partial);
  merge_span.arg("output_contours", st.output_contours);
  merge_span.arg("duplicates_removed", st.duplicates_removed);
  merge_span.end();

  if (sink_) {
    const std::int64_t degraded = st.degraded_slabs();
    req_span_.arg("degraded_slabs", degraded);
    sink_->add_counter(metric("requests").c_str(), 1);
    sink_->add_counter(metric("slabs").c_str(),
                       static_cast<std::int64_t>(nslabs));
    sink_->add_counter(metric("degraded_slabs").c_str(), degraded);
    sink_->add_counter(metric("steals").c_str(), steals);
    sink_->observe(metric("request_seconds").c_str(), req_timer_.seconds());
    if (st.partial.partial) {
      const auto missing =
          static_cast<std::int64_t>(st.partial.missing_slabs());
      req_span_.arg("partial", 1);
      req_span_.arg("missing_slabs", missing);
      sink_->add_counter(metric("partial_requests").c_str(), 1);
      sink_->add_counter(metric("missing_slabs").c_str(), missing);
    }
    if (const par::ResourceBudget* b = par::gov::current_budget())
      req_span_.arg("peak_budget_bytes", static_cast<std::int64_t>(b->peak()));
  }
  if (stats) *stats = std::move(st);
  return out;
}

PreparedInput prepare_input(
    par::ThreadPool& pool, std::size_t n,
    const std::function<const geom::Contour&(std::size_t)>& contour,
    bool is_clip, seq::PreparedSource* source) {
  PreparedInput in;
  in.prep.assign(n, nullptr);
  if (source)
    in.held.resize(n);
  else
    in.own.resize(n);
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        if (source) {
          in.held[i] = source->prepared(contour(i), is_clip);
          in.prep[i] = in.held[i].get();
        } else if (seq::prepare_contour(contour(i), is_clip, in.own[i])) {
          in.prep[i] = &in.own[i];
        }
      },
      /*grain=*/16);
  return in;
}

}  // namespace psclip::mt
