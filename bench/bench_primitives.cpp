// Supporting micro-benchmarks: the parallel primitives the PRAM algorithm
// is assembled from (prefix sum, parallel mergesort, segment tree
// build/query) — the building blocks named in the paper's contribution 1 —
// and the WKT writer and parser that bracket every clip job.

#include <benchmark/benchmark.h>

#include <random>

#include "data/synthetic.hpp"
#include "geom/wkt.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "segtree/segment_tree.hpp"
#include "seq/vatti.hpp"

namespace {

using psclip::par::ThreadPool;

ThreadPool& pool() {
  static ThreadPool p;
  return p;
}

void BM_InclusiveScan(benchmark::State& state) {
  std::vector<std::int64_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<std::int64_t> out(in.size());
  for (auto _ : state) {
    psclip::par::inclusive_scan(pool(), in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InclusiveScan)->Range(1 << 12, 1 << 20);

void BM_ParallelSort(benchmark::State& state) {
  std::mt19937_64 rng(5);
  std::vector<double> base(static_cast<std::size_t>(state.range(0)));
  for (auto& x : base) x = static_cast<double>(rng());
  for (auto _ : state) {
    state.PauseTiming();
    auto v = base;
    state.ResumeTiming();
    psclip::par::parallel_sort(pool(), v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelSort)->Range(1 << 12, 1 << 19);

void BM_SegmentTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  std::vector<double> breaks;
  for (std::size_t i = 0; i <= n; ++i) breaks.push_back(static_cast<double>(i));
  std::vector<std::pair<double, double>> ranges(n);
  for (auto& r : ranges) {
    double a = static_cast<double>(rng() % n);
    double b = static_cast<double>(rng() % n);
    if (a > b) std::swap(a, b);
    r = {a, b + 1.0};
  }
  for (auto _ : state) {
    auto t = psclip::segtree::SegmentTree::build(pool(), breaks, ranges);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_SegmentTreeBuild)->Range(1 << 8, 1 << 14);

void BM_SegmentTreeStabAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(13);
  std::vector<double> breaks;
  for (std::size_t i = 0; i <= n; ++i) breaks.push_back(static_cast<double>(i));
  std::vector<std::pair<double, double>> ranges(n);
  for (auto& r : ranges) {
    double a = static_cast<double>(rng() % n);
    double b = static_cast<double>(rng() % n);
    if (a > b) std::swap(a, b);
    r = {a, b + 1.0};
  }
  const auto t = psclip::segtree::SegmentTree::build(pool(), breaks, ranges);
  for (auto _ : state) {
    auto all = t.stab_all(pool());
    benchmark::DoNotOptimize(all.ids.data());
    state.counters["k_prime"] = static_cast<double>(all.ids.size());
  }
}
BENCHMARK(BM_SegmentTreeStabAll)->Range(1 << 8, 1 << 13);

/// Union of a 24k-edge synthetic_pair: the output the end-to-end
/// pair_large job serializes.
const psclip::geom::PolygonSet& union_output() {
  static const psclip::geom::PolygonSet u = [] {
    const auto pair = psclip::data::synthetic_pair(1, 24000);
    return psclip::seq::vatti_clip(pair.subject, pair.clip,
                                   psclip::geom::BoolOp::kUnion);
  }();
  return u;
}

void BM_ToWkt(benchmark::State& state) {
  const auto& p = union_output();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string w = psclip::geom::to_wkt(p);
    bytes = w.size();
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["vertices"] = static_cast<double>(p.num_vertices());
}
BENCHMARK(BM_ToWkt)->Unit(benchmark::kMillisecond);

void BM_FromWkt(benchmark::State& state) {
  const std::string w = psclip::geom::to_wkt(union_output());
  for (auto _ : state) {
    auto p = psclip::geom::from_wkt(w);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_FromWkt)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
