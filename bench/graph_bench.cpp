// Graphalytics kernel benchmarks: serial vs parallel timings for every
// kernel on three dataset families (social = preferential attachment,
// random = Erdos-Renyi, grid = 2D lattice), plus the CSR build itself.
//
//   graph_bench --json[=path]   # emit google-benchmark JSON (BENCH_graph.json)
//   graph_bench --tiny          # shrink datasets for CI smoke runs
//
// Benchmark arguments: {dataset, threads} where dataset is
// 0=social, 1=random, 2=grid.

#include <cstring>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "atlarge/graph/algorithms.hpp"
#include "atlarge/graph/graph.hpp"
#include "atlarge/stats/rng.hpp"
#include "bench_json_main.hpp"

using namespace atlarge;

namespace {

bool g_tiny = false;

const graph::Graph& dataset(int idx) {
  // Built lazily so --tiny (parsed in main, after static registration)
  // takes effect. Sizes in full mode match the table8 social dataset.
  static const graph::Graph social = [] {
    stats::Rng rng(3);
    return graph::preferential_attachment(g_tiny ? 500 : 20'000,
                                          g_tiny ? 4 : 8, rng);
  }();
  static const graph::Graph random = [] {
    stats::Rng rng(4);
    return graph::erdos_renyi(g_tiny ? 500 : 20'000, g_tiny ? 4.0 : 8.0, rng);
  }();
  static const graph::Graph grid =
      graph::grid_2d(g_tiny ? 20 : 141);  // ~n matches the other families
  switch (idx) {
    case 0: return social;
    case 1: return random;
    default: return grid;
  }
}

graph::KernelOptions opts_of(benchmark::State& state) {
  graph::KernelOptions opts;
  opts.threads = static_cast<std::uint32_t>(state.range(1));
  return opts;
}

void set_work(benchmark::State& state, const graph::WorkProfile& work) {
  state.counters["edges_traversed"] =
      benchmark::Counter(static_cast<double>(work.edges_traversed));
  state.counters["iterations"] =
      benchmark::Counter(static_cast<double>(work.iterations));
}

void BM_Bfs(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::BfsResult r;
  for (auto _ : state) {
    r = graph::bfs(g, 0, opts);
    benchmark::DoNotOptimize(r.depth.data());
  }
  set_work(state, r.work);
}

void BM_PageRank(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::PageRankResult r;
  for (auto _ : state) {
    r = graph::pagerank(g, 10, 0.85, opts);
    benchmark::DoNotOptimize(r.rank.data());
  }
  set_work(state, r.work);
}

void BM_Wcc(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::WccResult r;
  for (auto _ : state) {
    r = graph::wcc(g, opts);
    benchmark::DoNotOptimize(r.component.data());
  }
  set_work(state, r.work);
}

void BM_Cdlp(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::CdlpResult r;
  for (auto _ : state) {
    r = graph::cdlp(g, 5, opts);
    benchmark::DoNotOptimize(r.label.data());
  }
  set_work(state, r.work);
}

void BM_Lcc(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::LccResult r;
  for (auto _ : state) {
    r = graph::lcc(g, opts);
    benchmark::DoNotOptimize(r.coefficient.data());
  }
  set_work(state, r.work);
}

void BM_Sssp(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto opts = opts_of(state);
  graph::SsspResult r;
  for (auto _ : state) {
    r = graph::sssp(g, 0, opts);
    benchmark::DoNotOptimize(r.distance.data());
  }
  set_work(state, r.work);
}

// ---- CSR construction (counting sort) ----

void BM_FromEdges(benchmark::State& state) {
  const auto& g = dataset(static_cast<int>(state.range(0)));
  const auto edges = g.edge_list();
  const auto n = static_cast<graph::VertexId>(g.num_vertices());
  for (auto _ : state) {
    auto copy = edges;
    auto built = graph::Graph::from_edges(n, std::move(copy));
    benchmark::DoNotOptimize(built.num_edges());
  }
}

void register_benchmarks() {
  const std::vector<std::pair<const char*,
                              void (*)(benchmark::State&)>> kernels = {
      {"BM_Bfs", BM_Bfs},   {"BM_PageRank", BM_PageRank},
      {"BM_Wcc", BM_Wcc},   {"BM_Cdlp", BM_Cdlp},
      {"BM_Lcc", BM_Lcc},   {"BM_Sssp", BM_Sssp},
  };
  for (const auto& [name, fn] : kernels) {
    auto* b = benchmark::RegisterBenchmark(name, fn);
    b->ArgNames({"dataset", "threads"});
    for (int dataset_idx : {0, 1, 2})
      for (int threads : {1, 8}) b->Args({dataset_idx, threads});
  }
  auto* b = benchmark::RegisterBenchmark("BM_FromEdges", BM_FromEdges);
  b->ArgNames({"dataset"});
  for (int dataset_idx : {0, 1, 2}) b->Args({dataset_idx});
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      g_tiny = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  register_benchmarks();
  return atlarge::bench::run_benchmarks_with_json_flag(
      static_cast<int>(args.size()), args.data(), "BENCH_graph.json");
}
