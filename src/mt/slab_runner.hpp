#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geom/polygon.hpp"
#include "mt/arena.hpp"
#include "mt/stats.hpp"
#include "obs/trace.hpp"
#include "parallel/cancel.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/timing.hpp"
#include "seq/bounds.hpp"

namespace psclip::mt {

/// Span and metric names of one slab engine. Span names must be string
/// literals (trace sinks keep the pointer); `prefix` heads the counters
/// and histograms (`<prefix>.requests`, `<prefix>.slab_clip_seconds`, ...).
struct EngineNames {
  const char* prefix;
  const char* request;
  const char* clip;
  const char* slab;
  const char* merge;
};

/// What one slab attempt produced. The runner resets it before each
/// attempt, so a retry starts clean.
struct SlabWork {
  geom::PolygonSet result;
  SlabLoad load;
  double partition_seconds = 0.0;  ///< wall time of a separate partition step
  double partition_cpu = 0.0;      ///< its thread CPU time
};

/// What an engine hands the runner once its setup is done.
struct SlabJob {
  /// y-extent of every slab task; its size is the slab count. Names the
  /// missing strips of a partial result, so every extent is finite.
  std::vector<std::pair<double, double>> extents;
  /// One attempt at slab `t`. `arena` is the executing worker's arena on
  /// the healthy rung; null means kRetrySafe — fresh scratch and the
  /// engine's materializing path, bit-identical to the healthy one.
  /// `charge` is the attempt's memory-budget charge, released when the
  /// attempt ends. Throws on any failure.
  std::function<void(std::size_t t, SlabArena* arena,
                     par::gov::ScopedCharge& charge, SlabWork& out)>
      attempt;
  /// The whole request clipped sequentially: the final fallback when a
  /// slab fails both of its rungs on faults. Runs keyless.
  std::function<geom::PolygonSet()> whole_input;
  /// Optional post-pass over the concatenated slab outputs (multiset
  /// duplicate removal); returns the number of contours it removed.
  /// Skipped after the whole-input fallback, whose output has no slabs.
  std::function<std::int64_t(geom::PolygonSet&)> dedup;
};

/// The execution model both slab engines share (paper Algorithm 2 and its
/// two-layer variant): every slab clipped sequentially, all slabs in
/// parallel, outputs concatenated. Constructed at request entry from the
/// engine's options (Alg2Options or MultisetOptions: trace_sink, cancel,
/// allow_partial), it opens the request span, starts the setup clocks and
/// installs the request's governance token for the whole run — a null token inherits whatever the caller (psclip::clip facade)
/// already installed, and TaskGroup/parallel_for re-install it inside every
/// task — then checkpoints, so an already-dead request does no work. The
/// engine runs its setup and calls run() once.
///
/// run() owns everything around the per-slab clip: one TaskGroup task per
/// slab, the degradation ladder (kHealthy → kRetrySafe → kWholeInput,
/// always on) with its governance gate and failure classification,
/// caller-side recovery of tasks lost to a group fault,
/// the governance-vs-fault split of exhausted slabs (PartialReport or the
/// keyless whole-input fallback), the slab/rung spans, the
/// `<prefix>.*` metrics and the Alg2Stats assembly.
class SlabRunner {
 public:
  template <typename Options>
  SlabRunner(const EngineNames& names, par::ThreadPool& pool,
             const Options& opts)
      : names_(names),
        pool_(pool),
        sink_(opts.trace_sink),
        allow_partial_(opts.allow_partial),
        req_span_(opts.trace_sink, names.request, obs::Cat::kRequest) {
    if (opts.cancel.valid()) gov_scope_.emplace(opts.cancel);
    par::gov::checkpoint_now();
  }

  SlabRunner(const SlabRunner&) = delete;
  SlabRunner& operator=(const SlabRunner&) = delete;

  /// Attach an argument to the request span.
  void request_arg(const char* key, std::int64_t value) {
    req_span_.arg(key, value);
  }

  /// Run the slabs, concatenate their outputs and fill `stats`. A job with
  /// no slabs (empty input) returns an empty set and resets `stats`.
  geom::PolygonSet run(const SlabJob& job, Alg2Stats* stats);

 private:
  struct SlabOut;

  void run_slab(const SlabJob& job, std::size_t t, SlabOut& so, Rung first,
                obs::SpanId parent);
  void run_ladder(const SlabJob& job, std::size_t t, SlabOut& so, Rung first);
  void attempt(const SlabJob& job, std::size_t t, Rung rung, SlabWork& w);
  [[nodiscard]] std::string metric(const char* name) const {
    return std::string(names_.prefix) + "." + name;
  }

  const EngineNames& names_;
  par::ThreadPool& pool_;
  obs::TraceSink* sink_;
  bool allow_partial_;
  std::optional<par::gov::ScopedToken> gov_scope_;
  obs::ScopedSpan req_span_;
  par::WallTimer req_timer_;
  par::WallTimer setup_timer_;
  par::ThreadCpuTimer setup_cpu_timer_;
};

/// Every contour of one input prepared once, globally (the fused setup of
/// both engines): clean + coalesce + perturb + bound decomposition +
/// per-contour schedule run. `prep[i]` is contour i's fragment, null when
/// the contour degenerates. Without a source the fragments live in `own`;
/// with one (svc::PreparedCache) they are shared immutable fragments that
/// `held` keeps alive for the run. Readers see only `prep`, so they cannot
/// tell the two apart — the basis of the cache's byte-identity.
struct PreparedInput {
  std::vector<const seq::PreparedContour*> prep;
  std::vector<seq::PreparedContour> own;
  std::vector<std::shared_ptr<const seq::PreparedContour>> held;
};

PreparedInput prepare_input(
    par::ThreadPool& pool, std::size_t n,
    const std::function<const geom::Contour&(std::size_t)>& contour,
    bool is_clip, seq::PreparedSource* source);

}  // namespace psclip::mt
