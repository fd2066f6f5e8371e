// Google-benchmark microbenchmarks of the substrate hot paths: the DES
// kernel, the statistics routines, the cluster scheduler, the elastic
// simulator, and the portfolio scheduler's what-if tick. These are
// throughput sanity checks (challenge C3's "calibration" concern): the
// what-if simulations inside the portfolio scheduler are only viable
// online if the kernel is fast.
//
// Run with `--json[=path]` to additionally emit the results as JSON
// (default path BENCH_kernel.json, next to the working directory); the
// repo tracks that file so the kernel's perf trajectory is visible across
// PRs. Regenerate with:
//   ./build/bench/micro_kernels --json=BENCH_kernel.json

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json_main.hpp"

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/sim/thread_pool.hpp"
#include "atlarge/stats/descriptive.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"

using namespace atlarge;

namespace {

// ------------------------------------------------------------ DES kernel --

// The handle-free fast path: schedule-and-fire with the returned handles
// discarded, the shape every substrate's inner loop has.
void BM_SimulationScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      s.schedule_at(static_cast<double>(i % 1'000), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

// The pre-sized fast path domain engines use: reserve() up front, then
// schedule-and-fire with zero system-allocator traffic.
void BM_SimulationScheduleRunReserved(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    s.reserve(events);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      s.schedule_at(static_cast<double>(i % 1'000), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationScheduleRunReserved)->Arg(100'000);

// Same loop with the obs kernel observer attached but the tracer disabled
// (metrics-only plane): the cost of the counter/gauge updates per event.
void BM_SimulationScheduleRunObserved(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  obs::Observability plane(0);  // capacity 0: no tracing, metrics only
  for (auto _ : state) {
    sim::Simulation s;
    s.set_observer(plane.kernel_observer());
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      s.schedule_at(static_cast<double>(i % 1'000), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationScheduleRunObserved)->Arg(100'000);

// Full plane: kernel observer plus an enabled tracer receiving one instant
// per fired event — the worst-case per-event tracing cost (ring write).
void BM_SimulationScheduleRunTraced(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  obs::Observability plane;
  for (auto _ : state) {
    sim::Simulation s;
    s.set_observer(plane.kernel_observer());
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      s.schedule_at(static_cast<double>(i % 1'000), [&fired, &plane, &s] {
        ++fired;
        plane.tracer.instant("event", "bench", s.now());
      });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationScheduleRunTraced)->Arg(100'000);

// Raw tracer call cost, enabled (ring write + clock read) vs disabled
// (the null-sink fast path: a load and a branch).
void BM_TracerInstantEnabled(benchmark::State& state) {
  obs::Tracer tracer(1 << 16);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&tracer);  // keep enabled_ a real load
    tracer.instant("tick", "bench", t);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerInstantEnabled);

void BM_TracerInstantDisabled(benchmark::State& state) {
  obs::Tracer tracer;  // default-constructed: disabled
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&tracer);  // keep enabled_ a real load
    tracer.instant("tick", "bench", t);
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerInstantDisabled);

// Continuous telemetry attached: the same schedule-and-fire loop with a
// TimeSeries riding the kernel's sampling hook at the default 1.0s
// interval (1000 boundaries over the i%1000 schedule). The acceptance
// budget for the telemetry plane is <3% over BM_SimulationScheduleRun at
// 100k events; the perf gate tracks both so the delta stays visible.
void BM_SimulationScheduleRunSampled(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  obs::Observability plane(0);
  obs::TimeSeries series(1.0, 2048);
  series.track_counter("fired", plane.metrics.counter("sim.events_fired"));
  series.track_gauge("depth", plane.metrics.gauge("sim.queue_depth"));
  plane.attach_timeseries(&series);
  for (auto _ : state) {
    sim::Simulation s;
    s.set_observer(plane.kernel_observer());
    s.set_sampling_hook(plane.sampling_hook(), plane.sampling_interval());
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      s.schedule_at(static_cast<double>(i % 1'000), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationScheduleRunSampled)->Arg(100'000);

// ------------------------------------------------------------- telemetry --

// Digest insertion: the per-observation hot-path cost domain engines pay
// when a registry digest is attached (frexp + two shifts + an array bump).
void BM_DigestAdd(benchmark::State& state) {
  stats::Rng rng(7);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.uniform(1e-3, 1e3);
  obs::Digest digest;
  std::size_t i = 0;
  for (auto _ : state) {
    digest.add(values[i++ & 4095]);
  }
  benchmark::DoNotOptimize(digest.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestAdd);

// Digest merge: the campaign aggregation path (one merge per repeat per
// design point). Items/sec counts merges of a well-populated digest.
void BM_DigestMerge(benchmark::State& state) {
  stats::Rng rng(8);
  obs::Digest source;
  for (std::size_t i = 0; i < 10'000; ++i)
    source.add(rng.uniform(1e-3, 1e3));
  for (auto _ : state) {
    obs::Digest sink;
    sink.merge(source);
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestMerge);

// Digest quantile queries on a populated sketch (the SLO monitor pays this
// per evaluation window; exports pay four of them per digest).
void BM_DigestQuantile(benchmark::State& state) {
  stats::Rng rng(9);
  obs::Digest digest;
  for (std::size_t i = 0; i < 10'000; ++i)
    digest.add(rng.uniform(1e-3, 1e3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(digest.quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DigestQuantile);

// TimeSeries row append in the zero-alloc steady state (ring full, so every
// sample also overwrites the oldest row — the worst case).
void BM_TimeSeriesSample(benchmark::State& state) {
  obs::Registry registry;
  obs::TimeSeries series(1.0, 1024);
  auto& c0 = registry.counter("a");
  auto& c1 = registry.counter("b");
  series.track_counter("a", c0);
  series.track_counter("b", c1);
  series.track_gauge("g", registry.gauge("g"));
  double t = 0.0;
  for (auto _ : state) {
    c0.add(1);
    c1.add(2);
    series.sample(t);
    t += 1.0;
  }
  benchmark::DoNotOptimize(series.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesSample);

// Schedule/cancel churn: half the events are cancelled before they fire,
// exercising handle bookkeeping, tombstone reclamation, and slot reuse.
void BM_SimulationCancelChurn(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::size_t fired = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      handles.push_back(
          s.schedule_at(static_cast<double>(i % 1'000), [&fired] { ++fired; }));
    }
    for (std::size_t i = 0; i < events; i += 2) handles[i].cancel();
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulationCancelChurn)->Arg(10'000)->Arg(100'000);

// Timer-wheel-style churn: a bounded population of events is repeatedly
// cancelled and rescheduled (the P2P/MMOG keep-alive pattern), so the slot
// pool recycles constantly while the heap stays small.
void BM_SimulationRescheduleChurn(benchmark::State& state) {
  const auto rounds = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTimers = 256;
  for (auto _ : state) {
    sim::Simulation s;
    std::size_t fired = 0;
    std::vector<sim::EventHandle> timers(kTimers);
    double now = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t t = r % kTimers;
      timers[t].cancel();  // the keep-alive arrived; reset the timeout
      timers[t] = s.schedule_at(now + 10.0, [&fired] { ++fired; });
      if (t == kTimers - 1) {
        now += 1.0;
        s.run_until(now);  // pops tombstones whose deadline passed
      }
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          state.iterations());
}
BENCHMARK(BM_SimulationRescheduleChurn)->Arg(100'000);

// ------------------------------------------------------------ statistics --

void BM_RngUniform(benchmark::State& state) {
  stats::Rng rng(1);
  double acc = 0.0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_Summarize(benchmark::State& state) {
  stats::Rng rng(2);
  std::vector<double> sample(static_cast<std::size_t>(state.range(0)));
  for (auto& x : sample) x = rng.normal(0.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(stats::summarize(sample));
}
BENCHMARK(BM_Summarize)->Arg(1'000)->Arg(100'000);

// ------------------------------------------------------------- scheduler --

void BM_ClusterSchedule(benchmark::State& state) {
  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kScientific;
  spec.jobs = static_cast<std::size_t>(state.range(0));
  spec.seed = 3;
  const auto wl = workflow::generate(spec);
  const auto env = cluster::make_homogeneous_cluster("c", 8, 8);
  for (auto _ : state) {
    sched::SjfPolicy policy;
    benchmark::DoNotOptimize(sched::simulate(env, wl, policy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spec.jobs) *
                          state.iterations());
}
BENCHMARK(BM_ClusterSchedule)->Arg(50)->Arg(200);

// ------------------------------------------------------------- portfolio --

// A synthetic eligible-queue for one portfolio decision: `n` tasks over
// n/8 jobs and 4 users, deterministic runtimes/widths. TaskRef::user is a
// view, so the user names live as long as the program.
const std::string kPortfolioUsers[] = {"u0", "u1", "u2", "u3"};

std::vector<sched::TaskRef> portfolio_queue(std::size_t n) {
  std::vector<sched::TaskRef> queue;
  queue.reserve(n);
  stats::Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TaskRef ref;
    ref.job_id = i / 8;
    ref.task_id = static_cast<std::uint32_t>(i % 8);
    ref.runtime = rng.uniform(5.0, 500.0);
    ref.cores = static_cast<std::uint32_t>(1 + i % 4);
    ref.user = kPortfolioUsers[i % 4];
    queue.push_back(std::move(ref));
  }
  return queue;
}

// One full portfolio selection round (candidate what-if simulations plus
// the reduction), with `threads` evaluation lanes and `range(0)` candidate
// policies. Items/sec counts candidate simulations.
void portfolio_tick_bench(benchmark::State& state, std::size_t threads) {
  const auto candidates = static_cast<std::size_t>(state.range(0));
  const auto env = cluster::make_homogeneous_cluster("c", 8, 8);
  sched::PortfolioConfig config;
  config.eval_threads = threads;
  config.active_set = candidates;  // == policy count means "all"
  config.min_queue_to_select = 1;
  config.selection_interval = 1.0;
  sched::PortfolioScheduler portfolio(sched::standard_policies(), env, config);
  const auto queue = portfolio_queue(128);
  sched::SchedState st;
  double now = 0.0;
  for (auto _ : state) {
    st.now = now;
    benchmark::DoNotOptimize(portfolio.tick(st, queue));
    now += config.selection_interval + 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(candidates) *
                          state.iterations());
}

void BM_PortfolioTickSerial(benchmark::State& state) {
  portfolio_tick_bench(state, 1);
}
BENCHMARK(BM_PortfolioTickSerial)->Arg(2)->Arg(4)->Arg(7);

void BM_PortfolioTickParallel(benchmark::State& state) {
  portfolio_tick_bench(state, 4);
}
BENCHMARK(BM_PortfolioTickParallel)->Arg(2)->Arg(4)->Arg(7);

// Raw pool dispatch overhead: how much a parallel_for costs per index when
// the body is trivial (bounds the smallest snapshot worth parallelizing).
void BM_ThreadPoolParallelFor(benchmark::State& state) {
  sim::ThreadPool pool(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    pool.parallel_for(n, [&](std::size_t i) { out[i] += 1.0; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(8)->Arg(64);

// ------------------------------------------------------------- autoscale --

void BM_ElasticRun(benchmark::State& state) {
  workflow::WorkloadSpec spec;
  spec.cls = workflow::WorkloadClass::kIndustrial;
  spec.jobs = 30;
  spec.seed = 4;
  const auto wl = workflow::generate(spec);
  for (auto _ : state) {
    autoscale::ReactAutoscaler react;
    benchmark::DoNotOptimize(autoscale::run_elastic(wl, react));
  }
}
BENCHMARK(BM_ElasticRun);

}  // namespace

ATLARGE_BENCH_JSON_MAIN("BENCH_kernel.json")
