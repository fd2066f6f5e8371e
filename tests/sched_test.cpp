// Tests for the cluster scheduling simulator and the policy zoo.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "golden_util.hpp"

#include "atlarge/cluster/machine.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"

namespace sched = atlarge::sched;
namespace wf = atlarge::workflow;
namespace cluster = atlarge::cluster;

namespace {

wf::Workload single_task_jobs(std::initializer_list<double> runtimes,
                              double submit = 0.0) {
  wf::Workload wl;
  for (double r : runtimes) {
    wf::Job job;
    job.submit_time = submit;
    job.user = "u";
    job.tasks.push_back({r, 1, {}});
    wl.jobs.push_back(std::move(job));
  }
  wl.normalize();
  return wl;
}

}  // namespace

TEST(Simulator, SingleTaskRunsToCompletion) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 10.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
  EXPECT_EQ(result.tasks_completed, 1u);
}

TEST(Simulator, SerialExecutionOnOneCore) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({5.0, 5.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
}

TEST(Simulator, ParallelExecutionUsesAllCores) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 3);
  auto wl = single_task_jobs({5.0, 5.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_NEAR(result.utilization, 1.0, 1e-9);
}

TEST(Simulator, MachineSpeedScalesRuntime) {
  auto env = cluster::make_homogeneous_cluster("c", 1, 1, 2.0);  // 2x speed
  auto wl = single_task_jobs({10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(Simulator, DependenciesRespected) {
  const auto env = cluster::make_homogeneous_cluster("c", 4, 4);
  wf::Workload wl;
  wf::Job job;
  job.submit_time = 0.0;
  job.tasks.push_back({3.0, 1, {}});
  job.tasks.push_back({2.0, 1, {0}});
  job.tasks.push_back({1.0, 1, {1}});
  wl.jobs.push_back(job);
  wl.normalize();
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);  // chain, despite free cores
}

TEST(Simulator, GeoDispatchLatencyApplied) {
  // Two DCs of 1x1; two equal jobs. One runs remotely and pays latency.
  auto env = cluster::make_geo_distributed("g", 2, 1, 1, 0.5);
  auto wl = single_task_jobs({10.0, 10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  double max_finish = 0.0;
  for (const auto& j : result.jobs) max_finish = std::max(max_finish, j.finish);
  EXPECT_DOUBLE_EQ(max_finish, 10.5);
}

TEST(Simulator, RejectsImpossibleTask) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 8, {}});  // wider than any machine
  wl.jobs.push_back(job);
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, RejectsZeroCoreTask) {
  // The placement loop stops once no machine has a free core, which is
  // exact only if every task needs at least one.
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  wf::Workload wl;
  wf::Job job;
  job.tasks.push_back({1.0, 1, {}});
  job.tasks.push_back({1.0, 0, {}});
  wl.jobs.push_back(job);
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
  atlarge::sim::Simulation sim;
  EXPECT_THROW(sched::SchedDriver(env, wl, policy, {}, sim),
               std::invalid_argument);
}

TEST(Simulator, RejectsEmptyEnvironment) {
  cluster::Environment env;
  env.name = "empty";
  wf::Workload wl;
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

TEST(Simulator, WaitTimeAccounted) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0, 10.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  // One job waits 10s, the other 0 -> mean 5.
  EXPECT_DOUBLE_EQ(result.mean_wait, 5.0);
}

TEST(Simulator, SlowdownBoundedBelowByOne) {
  const auto env = cluster::make_homogeneous_cluster("c", 4, 8);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 30;
  spec.seed = 3;
  auto wl = wf::generate(spec);
  sched::SjfPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  for (const auto& j : result.jobs) EXPECT_GE(j.slowdown(), 1.0);
}

TEST(Simulator, TimeLimitExcludesUnfinished) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0, 1'000.0});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.time_limit = 100.0;
  const auto result = sched::simulate(env, wl, policy, options);
  EXPECT_EQ(result.jobs.size(), 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto env = cluster::make_multi_cluster("m", 2, 2, 4);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kBigData;
  spec.jobs = 40;
  spec.seed = 11;
  const auto wl = wf::generate(spec);
  sched::RandomPolicy p1(5);
  sched::RandomPolicy p2(5);
  const auto a = sched::simulate(env, wl, p1);
  const auto b = sched::simulate(env, wl, p2);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_slowdown, b.mean_slowdown);
}

TEST(Simulator, SjfBeatsLjfOnMeanSlowdownUnderLoad) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 50;
  spec.horizon = 2'000.0;  // heavy load
  spec.seed = 5;
  const auto wl = wf::generate(spec);
  sched::SjfPolicy sjf;
  sched::LjfPolicy ljf;
  const auto a = sched::simulate(env, wl, sjf);
  const auto b = sched::simulate(env, wl, ljf);
  EXPECT_LT(a.mean_slowdown, b.mean_slowdown);
}

TEST(Simulator, BackfillingProtectsBlockedWideHead) {
  // 2-core machine. A long narrow task pins one core; a wide (2-core) job
  // becomes queue head but cannot fit; a stream of short narrow tasks
  // follows. Greedy FCFS starves the wide head (a narrow task grabs every
  // freed core); EASY's reservation stops backfills that would delay the
  // head, so the wide job runs as soon as the long task ends.
  const auto env = cluster::make_homogeneous_cluster("c", 1, 2);
  wf::Workload wl;
  wf::Job long_job;
  long_job.submit_time = 0.0;
  long_job.user = "long";
  long_job.tasks.push_back({100.0, 1, {}});
  wl.jobs.push_back(std::move(long_job));
  wf::Job wide;
  wide.submit_time = 1.0;
  wide.user = "wide";
  wide.tasks.push_back({10.0, 2, {}});
  wl.jobs.push_back(std::move(wide));
  for (int i = 0; i < 20; ++i) {
    wf::Job job;
    job.submit_time = 2.0;
    job.user = "narrow";
    job.tasks.push_back({5.0, 1, {}});
    wl.jobs.push_back(std::move(job));
  }
  wl.normalize();

  const auto wide_finish = [&](sched::Policy& policy) {
    const auto result = sched::simulate(env, wl, policy);
    for (const auto& j : result.jobs) {
      if (j.id == 1) return j.finish;
    }
    return -1.0;
  };
  sched::FcfsPolicy fcfs;
  sched::EasyBackfillingPolicy easy;
  const double fcfs_finish = wide_finish(fcfs);
  const double easy_finish = wide_finish(easy);
  EXPECT_LT(easy_finish, fcfs_finish);
  EXPECT_NEAR(easy_finish, 110.0, 1.0);  // starts right as the long task ends
}

TEST(Simulator, MachineBusySecondsSumsToWork) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  auto wl = single_task_jobs({3.0, 4.0, 5.0});
  sched::FcfsPolicy policy;
  const auto result = sched::simulate(env, wl, policy);
  double busy = 0.0;
  for (double b : result.machine_busy_seconds) busy += b;
  EXPECT_DOUBLE_EQ(busy, 12.0);
}

// ---------------------------------------------------------------- policies --

TEST(Policies, ZooHasSevenDistinctNames) {
  const auto zoo = sched::standard_policies();
  ASSERT_EQ(zoo.size(), 7u);
  std::map<std::string, int> names;
  for (const auto& p : zoo) ++names[p->name()];
  EXPECT_EQ(names.size(), 7u);
}

TEST(Policies, OrderIsPermutation) {
  const auto zoo = sched::standard_policies();
  std::vector<sched::TaskRef> queue;
  for (std::uint32_t i = 0; i < 10; ++i) {
    sched::TaskRef ref;
    ref.job_id = i;
    ref.task_id = 0;
    ref.runtime = static_cast<double>(10 - i);
    ref.cores = 1 + i % 3;
    ref.submit_time = static_cast<double>(i % 4);
    ref.user = i % 2 ? "a" : "b";
    queue.push_back(ref);
  }
  sched::SchedState state;
  for (const auto& p : zoo) {
    auto q = queue;
    p->order(q, state);
    ASSERT_EQ(q.size(), queue.size()) << p->name();
    auto ids = [](const std::vector<sched::TaskRef>& v) {
      std::vector<std::uint64_t> out;
      for (const auto& r : v) out.push_back(r.job_id);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(ids(q), ids(queue)) << p->name();
  }
}

TEST(Policies, SjfSortsByRuntime) {
  std::vector<sched::TaskRef> queue(3);
  queue[0].runtime = 5.0;
  queue[1].runtime = 1.0;
  queue[2].runtime = 3.0;
  sched::SjfPolicy policy;
  sched::SchedState state;
  policy.order(queue, state);
  EXPECT_DOUBLE_EQ(queue[0].runtime, 1.0);
  EXPECT_DOUBLE_EQ(queue[2].runtime, 5.0);
}

TEST(Policies, FairShareFavorsLeastServedUser) {
  std::vector<sched::TaskRef> queue(2);
  queue[0].user = "heavy";
  queue[0].job_id = 0;
  queue[1].user = "light";
  queue[1].job_id = 1;
  std::vector<std::pair<std::string, double>> usage = {{"heavy", 100.0},
                                                       {"light", 1.0}};
  sched::SchedState state;
  state.user_usage = &usage;
  sched::FairSharePolicy policy;
  policy.order(queue, state);
  EXPECT_EQ(queue[0].user, "light");
}

TEST(Policies, RandomIsSeedDeterministic) {
  std::vector<sched::TaskRef> queue(20);
  for (std::uint32_t i = 0; i < 20; ++i) queue[i].job_id = i;
  auto q1 = queue;
  auto q2 = queue;
  sched::RandomPolicy a(9);
  sched::RandomPolicy b(9);
  sched::SchedState state;
  a.order(q1, state);
  b.order(q2, state);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_EQ(q1[i].job_id, q2[i].job_id);
}

TEST(Policies, CloneProducesSameBehavior) {
  sched::RandomPolicy original(13);
  auto clone = original.clone();
  std::vector<sched::TaskRef> q1(10);
  std::vector<sched::TaskRef> q2(10);
  for (std::uint32_t i = 0; i < 10; ++i) q1[i].job_id = q2[i].job_id = i;
  sched::SchedState state;
  original.order(q1, state);
  clone->order(q2, state);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(q1[i].job_id, q2[i].job_id);
}

TEST(Policies, DefaultTickIsFree) {
  sched::FcfsPolicy policy;
  sched::SchedState state;
  std::vector<sched::TaskRef> queue(3);
  EXPECT_DOUBLE_EQ(policy.tick(state, queue), 0.0);
}

// Safety property across all policies: no machine oversubscription and
// dependencies respected, verified via simulator invariants (completion
// of all tasks with per-job finish >= critical path).
class PolicySafety : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolicySafety, AllJobsCompleteAndRespectBounds) {
  auto zoo = sched::standard_policies();
  auto& policy = *zoo[GetParam()];
  const auto env = cluster::make_multi_cluster("m", 2, 2, 8);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kBigData;
  spec.jobs = 30;
  spec.seed = 17;
  const auto wl = wf::generate(spec);
  const auto result = sched::simulate(env, wl, policy);
  ASSERT_EQ(result.jobs.size(), wl.jobs.size()) << policy.name();
  for (const auto& j : result.jobs) {
    EXPECT_GE(j.start, j.submit) << policy.name();
    // finish - start can't beat the critical path.
    EXPECT_GE(j.finish - j.start, j.critical_path - 1e-6) << policy.name();
  }
  EXPECT_LE(result.utilization, 1.0 + 1e-9) << policy.name();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySafety,
                         ::testing::Range<std::size_t>(0, 7));

// ---------------------------------------------------------- observability --

TEST(Observability, SimulateEmitsKernelAndSchedulerTelemetry) {
  atlarge::obs::Observability plane;
  const auto env = cluster::make_homogeneous_cluster("c", 2, 4);
  wf::WorkloadSpec spec;
  spec.cls = wf::WorkloadClass::kScientific;
  spec.jobs = 10;
  spec.seed = 21;
  const auto wl = wf::generate(spec);
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.obs = &plane;
  const auto result = sched::simulate(env, wl, policy, options);

  const auto& counters = plane.metrics.counters();
  EXPECT_EQ(counters.at("sched.tasks_placed").value(),
            result.tasks_completed);
  EXPECT_GT(counters.at("sched.passes").value(), 0u);
  EXPECT_GT(counters.at("sim.events_fired").value(), 0u);
  // The engine pre-sizes its kernel for the workload's concurrent-event
  // ceiling, so the whole run never touches the system allocator.
  EXPECT_EQ(counters.at("sim.alloc_events").value(), 0.0);
  EXPECT_EQ(plane.metrics.histograms().at("sched.task_wait").count(),
            result.tasks_completed);

  // The trace mixes kernel-layer and scheduler-layer spans.
  bool saw_kernel = false;
  bool saw_sched = false;
  for (const auto& rec : plane.tracer.records()) {
    if (std::string_view(rec.category) == "kernel") saw_kernel = true;
    if (std::string_view(rec.category) == "sched") saw_sched = true;
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_sched);

  // Same run without the plane produces identical results: observation
  // must not perturb the simulation.
  sched::FcfsPolicy bare_policy;
  const auto bare = sched::simulate(env, wl, bare_policy);
  EXPECT_DOUBLE_EQ(bare.makespan, result.makespan);
  EXPECT_DOUBLE_EQ(bare.mean_slowdown, result.mean_slowdown);
}

// ----------------------------------------------------- fault injection --

TEST(Faults, CrashKillsAndRequeuesRunningTask) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  atlarge::fault::FaultPlan plan;
  plan.add({2.0, atlarge::fault::FaultKind::kMachineCrash, 0, 3.0, 0.5});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  const auto result = sched::simulate(env, wl, policy, options);
  // The task loses its 2s of progress, waits out the 3s outage, and
  // reruns from scratch on the restarted machine: 5.0 + 10.0 = 15.0.
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 15.0);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
  EXPECT_EQ(result.tasks_requeued, 1u);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.faults_recovered, 1u);  // the machine restarted
  EXPECT_EQ(result.tasks_completed, 1u);
}

TEST(Faults, SlowdownStretchesPlacementsMadeDuringTheWindow) {
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({10.0});
  atlarge::fault::FaultPlan plan;
  // Injections attach before arrivals, so at t=0 the machine is already
  // limping at half speed when the task is placed: 10 / 0.5 = 20.
  plan.add({0.0, atlarge::fault::FaultKind::kSlowdown, 0, 30.0, 0.5});
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = &plan;
  const auto result = sched::simulate(env, wl, policy, options);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.jobs[0].finish, 20.0);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.tasks_requeued, 0u);  // slowdowns never kill tasks
}

TEST(Faults, NullAndEmptyPlansKeepBaselineByteIdentical) {
  const auto env = cluster::make_homogeneous_cluster("c", 2, 2);
  auto wl = single_task_jobs({5.0, 7.0, 3.0});
  const auto run = [&](const atlarge::fault::FaultPlan* faults) {
    sched::FcfsPolicy policy;
    sched::SimOptions options;
    options.faults = faults;
    return sched::simulate(env, wl, policy, options);
  };
  const auto baseline = run(nullptr);
  const atlarge::fault::FaultPlan empty;
  const auto with_empty = run(&empty);
  EXPECT_EQ(baseline.makespan, with_empty.makespan);
  EXPECT_EQ(baseline.mean_wait, with_empty.mean_wait);
  EXPECT_EQ(baseline.utilization, with_empty.utilization);
  EXPECT_EQ(baseline.machine_busy_seconds, with_empty.machine_busy_seconds);
  EXPECT_EQ(with_empty.faults_injected, 0u);
  EXPECT_EQ(with_empty.tasks_requeued, 0u);
}

// ------------------------------------------------- static-order fast path --
//
// A policy with an order_key() runs on the simulator's incremental sorted
// queue; the same policy behind a wrapper that hides its key runs on the
// per-pass order() path. Both paths must produce the same schedule, bit for
// bit, so the per-pass path is the oracle for the fast one.

namespace {

/// Forwards everything except order_key(), forcing per-pass order().
class PerPassOrder final : public sched::Policy {
 public:
  explicit PerPassOrder(std::unique_ptr<sched::Policy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void order(std::vector<sched::TaskRef>& q,
             const sched::SchedState& s) override {
    inner_->order(q, s);
  }
  bool backfilling() const override { return inner_->backfilling(); }
  double tick(const sched::SchedState& s,
              const std::vector<sched::TaskRef>& q) override {
    return inner_->tick(s, q);
  }
  std::unique_ptr<sched::Policy> clone() const override {
    return std::make_unique<PerPassOrder>(inner_->clone());
  }

 private:
  std::unique_ptr<sched::Policy> inner_;
};

std::vector<std::unique_ptr<sched::Policy>> static_policies() {
  std::vector<std::unique_ptr<sched::Policy>> out;
  out.push_back(std::make_unique<sched::FcfsPolicy>());
  out.push_back(std::make_unique<sched::EasyBackfillingPolicy>());
  out.push_back(std::make_unique<sched::SjfPolicy>());
  out.push_back(std::make_unique<sched::LjfPolicy>());
  out.push_back(std::make_unique<sched::WideFirstPolicy>());
  return out;
}

/// Layered random DAGs with multi-core tasks, arriving in bursts so the
/// queue builds up; runtimes are rounded to whole seconds so that ties in
/// every key field are common and the (job, task) tie-break matters.
wf::Workload random_dag_workload(std::uint64_t seed) {
  atlarge::stats::Rng rng(seed);
  wf::Workload wl;
  for (std::size_t j = 0; j < 40; ++j) {
    wf::Job job = wf::make_random_dag(
        static_cast<std::size_t>(rng.uniform_int(1, 4)),
        static_cast<std::size_t>(rng.uniform_int(1, 6)), 2, 40.0, rng);
    for (auto& task : job.tasks) {
      task.runtime = std::max(1.0, std::round(task.runtime / 10.0) * 10.0);
      task.cores = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
    }
    job.submit_time = std::round(rng.uniform(0.0, 1500.0) / 100.0) * 100.0;
    job.user = "user" + std::to_string(j % 3);
    wl.jobs.push_back(std::move(job));
  }
  wl.normalize();
  return wl;
}

/// Machine crashes (which kill and re-queue running tasks) and slowdowns.
atlarge::fault::FaultPlan crash_and_slowdown_plan(std::uint64_t seed,
                                                  std::size_t machines) {
  atlarge::stats::Rng rng(seed);
  atlarge::fault::FaultPlan plan;
  for (int i = 0; i < 12; ++i) {
    const bool crash = i % 2 == 0;
    plan.add({rng.uniform(0.0, 2500.0),
              crash ? atlarge::fault::FaultKind::kMachineCrash
                    : atlarge::fault::FaultKind::kSlowdown,
              static_cast<std::uint32_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(machines) - 1)),
              rng.uniform(20.0, 300.0), crash ? 1.0 : 0.5});
  }
  return plan;
}

void expect_identical(const sched::SchedResult& a,
                      const sched::SchedResult& b, const std::string& what) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << what;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id) << what;
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start) << what << " job " << i;
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << what << " job " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.machine_busy_seconds, b.machine_busy_seconds) << what;
  EXPECT_EQ(a.tasks_completed, b.tasks_completed) << what;
  EXPECT_EQ(a.tasks_requeued, b.tasks_requeued) << what;
  EXPECT_EQ(a.faults_injected, b.faults_injected) << what;
  EXPECT_TRUE(a.wait_digest == b.wait_digest) << what;
  EXPECT_TRUE(a.slowdown_digest == b.slowdown_digest) << what;
}

/// The tasks of a queue in order, by identity and eligible time.
std::vector<std::tuple<std::uint64_t, std::uint32_t, double>> identities(
    const std::vector<sched::TaskRef>& q) {
  std::vector<std::tuple<std::uint64_t, std::uint32_t, double>> out;
  for (const auto& r : q)
    out.emplace_back(r.job_id, r.task_id, r.eligible_time);
  return out;
}

}  // namespace

TEST(StaticOrder, IncrementalQueueMatchesPerPassOrder) {
  const auto env = cluster::make_geo_distributed("g", 3, 2, 8, 0.05);
  const std::size_t machines = env.all_machines().size();
  std::size_t requeued = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto wl = random_dag_workload(seed);
    const auto plan = crash_and_slowdown_plan(seed * 31, machines);
    for (const bool faulty : {false, true}) {
      sched::SimOptions options;
      if (faulty) options.faults = &plan;
      for (auto& policy : static_policies()) {
        const std::string what = policy->name() + " seed " +
                                 std::to_string(seed) +
                                 (faulty ? " faulty" : "");
        const auto fast = sched::simulate(env, wl, *policy, options);
        PerPassOrder slow_policy(policy->clone());
        const auto slow = sched::simulate(env, wl, slow_policy, options);
        expect_identical(fast, slow, what);
        if (faulty) requeued += fast.tasks_requeued;
      }
    }
  }
  EXPECT_GT(requeued, 0u) << "the crash plans must exercise the requeue path";
}

TEST(StaticOrder, OrderIsPermutationInvariantAndSortsByKey) {
  atlarge::stats::Rng rng(5);
  std::vector<sched::TaskRef> queue;
  for (std::uint32_t i = 0; i < 200; ++i) {
    sched::TaskRef ref;
    ref.job_id = static_cast<std::uint64_t>(rng.uniform_int(0, 40));
    ref.task_id = i;
    ref.runtime = static_cast<double>(rng.uniform_int(1, 5));
    ref.cores = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    ref.submit_time = static_cast<double>(rng.uniform_int(0, 3));
    ref.eligible_time = static_cast<double>(rng.uniform_int(0, 3));
    queue.push_back(ref);
  }
  const sched::SchedState state;
  for (auto& policy : static_policies()) {
    auto by_key = queue;
    std::sort(by_key.begin(), by_key.end(),
              [&](const sched::TaskRef& a, const sched::TaskRef& b) {
                sched::OrderKey ka, kb;
                EXPECT_TRUE(policy->order_key(a, ka));
                EXPECT_TRUE(policy->order_key(b, kb));
                return ka < kb;
              });
    for (int trial = 0; trial < 5; ++trial) {
      auto shuffled = queue;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      policy->order(shuffled, state);
      EXPECT_EQ(identities(shuffled), identities(by_key)) << policy->name();
    }
  }
}

TEST(StaticOrder, KeyedPolicyIsNeverAskedToOrderOrTick) {
  // The engine keeps a keyed policy's queue sorted itself; order() and
  // tick() are for policies whose order changes while tasks wait.
  struct Counting final : sched::Policy {
    int calls = 0;
    std::string name() const override { return "COUNTING"; }
    void order(std::vector<sched::TaskRef>&,
               const sched::SchedState&) override {
      ++calls;
    }
    bool order_key(const sched::TaskRef& t,
                   sched::OrderKey& k) const override {
      k = {t.runtime, 0.0, t.job_id, t.task_id};
      return true;
    }
    double tick(const sched::SchedState&,
                const std::vector<sched::TaskRef>&) override {
      ++calls;
      return 0.0;
    }
    std::unique_ptr<sched::Policy> clone() const override {
      return std::make_unique<Counting>();
    }
  };
  const auto env = cluster::make_homogeneous_cluster("c", 1, 1);
  auto wl = single_task_jobs({5.0, 1.0, 3.0});
  Counting policy;
  const auto result = sched::simulate(env, wl, policy);
  EXPECT_EQ(policy.calls, 0);
  EXPECT_DOUBLE_EQ(result.makespan, 9.0);
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(result.jobs[1].finish, 1.0);  // shortest ran first
}

TEST(StaticOrder, PolicyWithoutKeyOrOrderThrows) {
  struct Keyless final : sched::Policy {
    std::string name() const override { return "KEYLESS"; }
    std::unique_ptr<sched::Policy> clone() const override {
      return std::make_unique<Keyless>();
    }
  };
  Keyless policy;
  std::vector<sched::TaskRef> queue(2);
  EXPECT_THROW(policy.order(queue, sched::SchedState{}), std::logic_error);
}

TEST(Simulator, RejectsDuplicateJobIds) {
  // Policies name tasks by (job id, task id), so ids must be distinct.
  const auto env = cluster::make_homogeneous_cluster("c", 1, 2);
  wf::Workload wl;
  for (int i = 0; i < 2; ++i) {
    wf::Job job;
    job.id = 7;
    job.tasks.push_back({1.0, 1, {}});
    wl.jobs.push_back(job);
  }
  sched::FcfsPolicy policy;
  EXPECT_THROW(sched::simulate(env, wl, policy), std::invalid_argument);
}

// --------------------------------------------------------- per-pass path --
//
// Policies without an order key get the engine's mirror of TaskRefs on
// every pass: tick() reads it, order() permutes a copy, and the engine
// resolves each returned ref back to its task, directly by position when
// job ids are positions and through the sorted id index otherwise.

namespace {

/// `wl` with its job ids renumbered by `id_of(position)`; order-preserving
/// renumberings leave every policy's decisions unchanged.
template <typename IdOf>
wf::Workload renumbered(wf::Workload wl, IdOf id_of) {
  for (std::size_t i = 0; i < wl.jobs.size(); ++i) wl.jobs[i].id = id_of(i);
  return wl;
}

std::unique_ptr<sched::PortfolioScheduler> small_portfolio(
    const cluster::Environment& env) {
  sched::PortfolioConfig config;
  config.selection_interval = 150.0;
  config.snapshot_cap = 64;
  return std::make_unique<sched::PortfolioScheduler>(
      sched::standard_policies(3), env, config);
}

std::vector<std::unique_ptr<sched::Policy>> per_pass_policies(
    const cluster::Environment& env) {
  std::vector<std::unique_ptr<sched::Policy>> out;
  out.push_back(std::make_unique<sched::RandomPolicy>(17));
  out.push_back(std::make_unique<sched::FairSharePolicy>());
  out.push_back(
      std::make_unique<PerPassOrder>(std::make_unique<sched::FcfsPolicy>()));
  out.push_back(std::make_unique<PerPassOrder>(
      std::make_unique<sched::EasyBackfillingPolicy>()));
  out.push_back(small_portfolio(env));
  return out;
}

}  // namespace

TEST(PerPass, DenseAndSparseJobIdsGiveIdenticalSchedules) {
  const auto env = cluster::make_geo_distributed("g", 3, 2, 8, 0.05);
  const std::size_t machines = env.all_machines().size();
  // Ids far past the job count always miss the direct index; even ids
  // 2, 4, ... below the job count land inside it on the wrong job. Both
  // fall back to the id index.
  const auto far = [](std::size_t i) { return 1000 + 7 * std::uint64_t{i}; };
  const auto even = [](std::size_t i) { return 2 * std::uint64_t{i}; };
  std::size_t requeued = 0;
  std::size_t rounds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto dense = random_dag_workload(seed);
    const auto plan = crash_and_slowdown_plan(seed * 31, machines);
    for (const bool faulty : {false, true}) {
      sched::SimOptions options;
      if (faulty) options.faults = &plan;
      for (const auto& prototype : per_pass_policies(env)) {
        const std::string what = prototype->name() + " seed " +
                                 std::to_string(seed) +
                                 (faulty ? " faulty" : "");
        std::vector<sched::SchedResult> results;
        std::vector<std::map<std::string, std::size_t>> selections;
        for (const auto& wl :
             {dense, renumbered(dense, far), renumbered(dense, even)}) {
          const auto policy = prototype->clone();
          auto result = sched::simulate(env, wl, *policy, options);
          // Map ids back to positions so the results compare directly.
          for (auto& job : result.jobs) {
            const auto at = std::find_if(
                wl.jobs.begin(), wl.jobs.end(),
                [&](const wf::Job& j) { return j.id == job.id; });
            ASSERT_NE(at, wl.jobs.end()) << what;
            job.id = static_cast<std::uint64_t>(at - wl.jobs.begin());
          }
          results.push_back(std::move(result));
          if (const auto* pf =
                  dynamic_cast<const sched::PortfolioScheduler*>(policy.get()))
            selections.push_back(pf->selections());
        }
        expect_identical(results[0], results[1], what + " far ids");
        expect_identical(results[0], results[2], what + " even ids");
        if (!selections.empty()) {
          EXPECT_EQ(selections[0], selections[1]) << what;
          EXPECT_EQ(selections[0], selections[2]) << what;
          for (const auto& [name, count] : selections[0]) rounds += count;
        }
        if (faulty) requeued += results[0].tasks_requeued;
      }
    }
  }
  EXPECT_GT(requeued, 0u) << "the crash plans must exercise the requeue path";
  EXPECT_GT(rounds, 0u) << "the portfolio must select at least once";
}

namespace {

/// Orders like its inner policy, then surrounds the result with refs the
/// engine must ignore: every workload task that is not queued (pending,
/// running or done) in front, each queued ref twice, and two refs naming
/// no task at the end.
class SloppyOrder final : public sched::Policy {
 public:
  SloppyOrder(std::unique_ptr<sched::Policy> inner, const wf::Workload& wl)
      : inner_(std::move(inner)), wl_(wl) {}
  std::string name() const override { return inner_->name(); }
  bool backfilling() const override { return inner_->backfilling(); }
  void order(std::vector<sched::TaskRef>& q,
             const sched::SchedState& s) override {
    inner_->order(q, s);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> queued;
    for (const auto& ref : q) queued.emplace_back(ref.job_id, ref.task_id);
    std::sort(queued.begin(), queued.end());
    std::vector<sched::TaskRef> out;
    for (const auto& job : wl_.jobs) {
      for (std::uint32_t ti = 0; ti < job.tasks.size(); ++ti) {
        if (std::binary_search(queued.begin(), queued.end(),
                               std::pair{job.id, ti}))
          continue;
        sched::TaskRef stale;
        stale.job_id = job.id;
        stale.task_id = ti;
        out.push_back(stale);
      }
    }
    for (const auto& ref : q) {
      out.push_back(ref);
      out.push_back(ref);
    }
    sched::TaskRef no_job;
    no_job.job_id = 1'000'000;
    out.push_back(no_job);
    if (!q.empty()) {
      sched::TaskRef no_task = q.front();
      no_task.task_id = 1'000'000;
      out.push_back(no_task);
    }
    q = std::move(out);
  }
  std::unique_ptr<sched::Policy> clone() const override {
    return std::make_unique<SloppyOrder>(inner_->clone(), wl_);
  }

 private:
  std::unique_ptr<sched::Policy> inner_;
  const wf::Workload& wl_;
};

}  // namespace

TEST(PerPass, StaleAndDuplicateRefsAreSkipped) {
  const auto env = cluster::make_geo_distributed("g", 3, 2, 8, 0.05);
  const std::size_t machines = env.all_machines().size();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto wl = random_dag_workload(seed);
    const auto plan = crash_and_slowdown_plan(seed * 31, machines);
    for (const bool faulty : {false, true}) {
      sched::SimOptions options;
      if (faulty) options.faults = &plan;
      std::vector<std::unique_ptr<sched::Policy>> plain;
      plain.push_back(std::make_unique<sched::RandomPolicy>(5));
      plain.push_back(std::make_unique<sched::FairSharePolicy>());
      plain.push_back(std::make_unique<sched::EasyBackfillingPolicy>());
      for (auto& policy : plain) {
        const std::string what = policy->name() + " seed " +
                                 std::to_string(seed) +
                                 (faulty ? " faulty" : "");
        SloppyOrder sloppy(policy->clone(), wl);
        const auto expected = sched::simulate(env, wl, *policy, options);
        const auto got = sched::simulate(env, wl, sloppy, options);
        expect_identical(expected, got, what);
      }
    }
  }
}

TEST(PerPass, OrderLeavesSortedInputUntouched) {
  std::vector<sched::TaskRef> queue;
  for (std::uint32_t i = 0; i < 50; ++i) {
    sched::TaskRef ref;
    ref.job_id = i / 5;
    ref.task_id = i % 5;
    ref.runtime = static_cast<double>(1 + (i * 7) % 11);
    ref.submit_time = static_cast<double>(i / 10);
    ref.eligible_time = static_cast<double>(i / 10);
    ref.user = "u";
    queue.push_back(ref);
  }
  sched::FcfsPolicy fcfs;
  sched::FairSharePolicy fair;
  for (sched::Policy* policy : {static_cast<sched::Policy*>(&fcfs),
                                static_cast<sched::Policy*>(&fair)}) {
    auto q = queue;
    const sched::TaskRef* storage = q.data();
    policy->order(q, sched::SchedState{});
    ASSERT_EQ(q.size(), queue.size());
    // Sorted keys take the shortcut: no gather into a new buffer.
    EXPECT_EQ(q.data(), storage) << policy->name();
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_EQ(q[i].job_id, queue[i].job_id) << policy->name();
      EXPECT_EQ(q[i].task_id, queue[i].task_id) << policy->name();
      EXPECT_EQ(q[i].runtime, queue[i].runtime) << policy->name();
      EXPECT_EQ(q[i].user, queue[i].user) << policy->name();
    }
  }
}

TEST(PerPass, OrderSortsInputWithOneElementOutOfPlace) {
  std::vector<sched::TaskRef> sorted;
  for (std::uint32_t i = 0; i < 30; ++i) {
    sched::TaskRef ref;
    ref.job_id = i;
    ref.submit_time = static_cast<double>(i);
    sorted.push_back(ref);
  }
  // The last element belongs at the front: only a full sort places it.
  auto queue = sorted;
  queue.back().job_id = 1000;
  queue.back().submit_time = -1.0;
  auto expected = queue;
  std::rotate(expected.begin(), expected.end() - 1, expected.end());
  sched::FcfsPolicy fcfs;
  sched::FairSharePolicy fair;
  for (sched::Policy* policy : {static_cast<sched::Policy*>(&fcfs),
                                static_cast<sched::Policy*>(&fair)}) {
    auto q = queue;
    policy->order(q, sched::SchedState{});
    EXPECT_EQ(identities(q), identities(expected)) << policy->name();
  }
}

// ---------------------------------------------------------- memoized order --
//
// The default Policy::order() and FairSharePolicy::order() remember their
// last call and, when the new input is the last one with some tasks
// dropped and newcomers appended (what the engine's mirror of its queue
// does between passes), sort only the newcomers. Whatever the caller does
// to the queue between calls, the output must equal a fresh full sort.

namespace {

const std::string kUsers[] = {"u0", "u1", "u2", "u3"};

/// The key a fresh full sort orders `ref` by: the policy's order_key(), or
/// FAIR's (usage, submit time, job, task).
sched::OrderKey full_sort_key(
    const sched::Policy& policy, const sched::TaskRef& ref,
    const std::vector<std::pair<std::string, double>>& usage) {
  sched::OrderKey key;
  if (policy.order_key(ref, key)) return key;
  double used = 0.0;
  for (const auto& [user, value] : usage)
    if (user == ref.user) used = value;
  return {used, ref.submit_time, ref.job_id, ref.task_id};
}

}  // namespace

TEST(MemoOrder, EveryCallMatchesAFreshFullSort) {
  std::size_t requeued_survivors = 0;
  std::size_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    atlarge::stats::Rng rng(seed);
    // Every keyed policy and FAIR. One of them orders at a time and the
    // choice switches now and then, as the portfolio's outer run switches
    // its delegate; each keeps its own memo across the switches.
    std::vector<std::unique_ptr<sched::Policy>> delegates;
    for (auto& p : static_policies()) delegates.push_back(std::move(p));
    delegates.push_back(std::make_unique<sched::FairSharePolicy>());
    std::vector<std::pair<std::string, double>> usage;
    for (const auto& user : kUsers) usage.emplace_back(user, 0.0);
    sched::SchedState state;
    state.user_usage = &usage;

    struct Job {
      std::uint64_t id;
      double submit;
      std::string_view user;
      std::uint32_t tasks = 0;
    };
    std::vector<Job> jobs;
    std::vector<sched::TaskRef> mirror;   // the caller's queue, in its order
    std::vector<sched::TaskRef> running;  // dropped, may be requeued
    std::size_t current = delegates.size() - 1;
    for (int step = 0; step < 300; ++step) {
      const double now = static_cast<double>(step);
      // Placed tasks leave; the rest keep their order.
      std::vector<sched::TaskRef> kept;
      std::vector<sched::TaskRef> placed;
      for (const auto& ref : mirror)
        (rng.uniform() < 0.1 ? placed : kept).push_back(ref);
      mirror = std::move(kept);
      // Newcomers, of new jobs and of jobs already queued. Runtimes, cores
      // and submit times repeat, so the (job, task) tie-break matters.
      for (auto k = rng.uniform_int(0, 6); k > 0; --k) {
        if (jobs.empty() || rng.uniform() < 0.4)
          jobs.push_back({jobs.size(), std::floor(now / 10.0),
                          kUsers[rng.uniform_int(0, 3)]});
        Job& job = jobs[static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(jobs.size() > 5 ? jobs.size() - 5 : 0),
            static_cast<std::int64_t>(jobs.size()) - 1))];
        sched::TaskRef ref;
        ref.job_id = job.id;
        ref.task_id = job.tasks++;
        ref.cores = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
        ref.runtime = static_cast<double>(rng.uniform_int(1, 5));
        ref.submit_time = job.submit;
        ref.eligible_time = now;
        ref.user = job.user;
        mirror.push_back(ref);
      }
      // A crash requeues a running task with its ids and a new
      // eligible_time: one placed just now is still in the last input.
      if (!running.empty() && rng.uniform() < 0.3) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
        sched::TaskRef ref = running[at];
        ref.eligible_time = now;
        mirror.push_back(ref);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(at));
      }
      if (!placed.empty() && rng.uniform() < 0.3) {
        sched::TaskRef ref = placed.back();
        placed.pop_back();
        ref.eligible_time = now;
        mirror.push_back(ref);
        ++requeued_survivors;
      }
      running.insert(running.end(), placed.begin(), placed.end());
      // A caller that reorders its own queue.
      if (rng.uniform() < 0.05) {
        for (std::size_t i = mirror.size(); i > 1; --i)
          std::swap(mirror[i - 1],
                    mirror[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(i) - 1))]);
      }
      // FAIR's usage ranks flip; equal usages leave the rest of its key.
      if (rng.uniform() < 0.3)
        for (auto& [user, used] : usage)
          used = 10.0 * static_cast<double>(rng.uniform_int(0, 3));
      if (rng.uniform() < 0.1)
        current = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(delegates.size()) - 1));

      sched::Policy& policy = *delegates[current];
      auto want = mirror;
      std::sort(want.begin(), want.end(),
                [&](const sched::TaskRef& a, const sched::TaskRef& b) {
                  return full_sort_key(policy, a, usage) <
                         full_sort_key(policy, b, usage);
                });
      auto got = mirror;
      policy.order(got, state);
      ++calls;
      ASSERT_EQ(identities(got), identities(want))
          << policy.name() << " seed " << seed << " step " << step;
    }
  }
  EXPECT_GT(requeued_survivors, 100u);
  EXPECT_EQ(calls, 6000u);
}

// ------------------------------------------------------------------ goldens --
//
// Static-order and per-pass runs share the placement loop, so the
// differential tests above cannot see a fault common to both paths. These
// fingerprints were recorded before the loop stopped on a full cluster and
// before the static queue was compacted by position. The runs saturate a
// geo-distributed cluster with multi-core tasks, so both show on most
// passes.

TEST(Golden, SaturatedGeoRunsKeepTheirFingerprints) {
  const auto env = cluster::make_geo_distributed("g", 2, 2, 8, 0.05);
  const std::size_t machines = env.all_machines().size();
  const auto wl = random_dag_workload(7);
  const auto plan = crash_and_slowdown_plan(7 * 31, machines);
  auto policies = sched::standard_policies(3);
  policies.push_back(small_portfolio(env));
  struct Pin {
    const char* policy;
    bool faulty;
    const char* fingerprint;
  };
  const Pin pinned[] = {
      {"FCFS", false,
       "jobs=40 mk=2802.8499999999995 wait=110.72624999999989"
       " slow=6.1760545909428881 p95=18.791624999999989"
       " util=0.86758232691724613 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=730 h=bffd5f9e529a30cc sdig=n=40 min=1"
       " max=26.119999999999948 h=365c112f133420ef"},
      {"EASY-BF", false,
       "jobs=40 mk=2961.0999999999995 wait=214.78999999999979"
       " slow=5.8090409360737567 p95=15.037812499999998"
       " util=0.82121614433825296 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=991.04999999999927 h=ed70f1e737df361 sdig=n=40"
       " min=1.0854166666666667 max=24.369999999999983 h=700faf64ec51b8a8"},
      {"SJF", false,
       "jobs=40 mk=2943.4499999999998 wait=23.072499999999952"
       " slow=3.5929237811485875 p95=7.8391865203761748"
       " util=0.82611232142553859 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=451.14999999999964 h=563e1b635a32df81 sdig=n=40 min=1"
       " max=10.704062499999996 h=f5239984b227cc15"},
      {"LJF", false,
       "jobs=40 mk=2871.900000000001 wait=73.528749999999974"
       " slow=12.501247231978351 p95=36.302499999999995"
       " util=0.84671841812040849 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=1651.5999999999999 h=e1633f4e58dbea4f sdig=n=40 min=1"
       " max=166.16500000000002 h=29e6c38ca7cb186a"},
      {"WIDE", false,
       "jobs=40 mk=2630.3499999999999 wait=121.14124999999994"
       " slow=7.0067342350452364 p95=25.645374999999959"
       " util=0.92444862375729364 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=1390 h=72dee939ec0d4883 sdig=n=40"
       " min=1.0016666666666652 max=35.344999999999999 h=c768f28a6f71df4"},
      {"RANDOM", false,
       "jobs=40 mk=2801.5000000000014 wait=21.54999999999999"
       " slow=6.0689561570733979 p95=13.39198809523808"
       " util=0.86790335534535035 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=180.09999999999991 h=b60f45ea1f66ab25 sdig=n=40 min=1"
       " max=38.399999999999999 h=3e48a48435d4caa4"},
      {"FAIR", false,
       "jobs=40 mk=2771.7000000000007 wait=51.176249999999989"
       " slow=5.8953283219685053 p95=14.578166666666654"
       " util=0.87731863567485602 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=420.64999999999998 h=e9c97c7823f69024 sdig=n=40 min=1"
       " max=27.25 h=308f88529fda617f"},
      {"PORTFOLIO", false,
       "jobs=40 mk=2810.7500000000014 wait=29.164999999999942"
       " slow=3.4794939949858112 p95=8.0905172413793096"
       " util=0.86514164368940649 tasks=326 rq=0 inj=0 rec=0 wdig=n=40"
       " min=0 max=450 h=3c77b9906910a17f sdig=n=40 min=1 max=11.5"
       " h=cc7332483fa6816a EASY-BF=1 FAIR=2 LJF=2 SJF=12"},
      {"FCFS", true,
       "jobs=40 mk=3350.6541327340888 wait=214.14084939951286"
       " slow=10.507839213083184 p95=27.2781606524346"
       " util=0.76333278259679649 tasks=326 rq=10 inj=12 rec=10 wdig=n=40"
       " min=0 max=1123.2165263067209 h=55b160cffb127fe2 sdig=n=40"
       " min=1.2770689655172414 max=97.060413273408855 h=5006aea28a3347f8"},
      {"EASY-BF", true,
       "jobs=40 mk=3444.0165263067202 wait=332.32723264629857"
       " slow=9.8069598341662161 p95=25.692260964723328"
       " util=0.74369982253251232 tasks=326 rq=10 inj=12 rec=10 wdig=n=40"
       " min=0 max=1463.96652630672 h=b3e6a5fb2a46f38a sdig=n=40"
       " min=1.1386206896551725 max=39.468884210224012 h=3941a454ba18cdd9"},
      {"SJF", true,
       "jobs=40 mk=3346.1444731223264 wait=45.820893921608182"
       " slow=5.439515430115609 p95=10.805090489995385"
       " util=0.77064385505465738 tasks=326 rq=10 inj=12 rec=10 wdig=n=40"
       " min=0 max=983.65544257148781 h=b9c17e9ac15a2089 sdig=n=40"
       " min=1.0014285714285713 max=19.380787276019372 h=2ad38eecbce747fb"},
      {"LJF", true,
       "jobs=40 mk=3306.5444731223288 wait=183.29994935364439"
       " slow=18.303876512412341 p95=45.5651033183522"
       " util=0.79539830054163219 tasks=326 rq=10 inj=12 rec=10 wdig=n=40"
       " min=0 max=2191.8000000000025 h=407b493091e47ddd sdig=n=40"
       " min=1.0129159291848633 max=220.18500000000026 h=dcd697979cbdec36"},
      {"WIDE", true,
       "jobs=40 mk=3153.1165263067205 wait=235.54991976582474"
       " slow=11.877062220337901 p95=38.412878682590403"
       " util=0.85090952467344905 tasks=326 rq=8 inj=12 rec=10 wdig=n=40"
       " min=0 max=1731.7000000000025 h=ef1d2c001e6b75c4 sdig=n=40 min=1"
       " max=46.203149104077553 h=2823fb78df7fceef"},
      {"RANDOM", true,
       "jobs=40 mk=3232.2500000000032 wait=108.1658798025904"
       " slow=8.2364333126689058 p95=17.71339425065117"
       " util=0.80296645854102344 tasks=326 rq=7 inj=12 rec=10 wdig=n=40"
       " min=0 max=2071.6000000000008 h=1f72c1e4f97ae2ed sdig=n=40 min=1"
       " max=50.78625000000001 h=f711df65aa011b74"},
      {"FAIR", true,
       "jobs=40 mk=3266.5444731223283 wait=122.76696258572863"
       " slow=8.4248177621986304 p95=23.259578727601948"
       " util=0.79467663566153945 tasks=326 rq=8 inj=12 rec=10 wdig=n=40"
       " min=0 max=890.94999999999959 h=4e76130a912f4740 sdig=n=40"
       " min=1.0954545454545455 max=34.38111182805811 h=54ae7b0e73c9dc00"},
      {"PORTFOLIO", true,
       "jobs=40 mk=3401.5500000000011 wait=72.458649722517066"
       " slow=6.3772971439779695 p95=13.273967184163777"
       " util=0.75955820156044684 tasks=326 rq=9 inj=12 rec=10 wdig=n=40"
       " min=0 max=1490.6041327340886 h=3938c8bec054bb6 sdig=n=40 min=1"
       " max=22.757499999999993 h=8e189fe5c5faa5cf FAIR=2 FCFS=1 SJF=17"},
  };
  std::size_t k = 0;
  for (const bool faulty : {false, true}) {
    sched::SimOptions options;
    if (faulty) options.faults = &plan;
    for (const auto& prototype : policies) {
      const auto policy = prototype->clone();
      const auto result = sched::simulate(env, wl, *policy, options);
      std::string fp = atlarge::golden::sched_fingerprint(result);
      if (const auto* pf =
              dynamic_cast<const sched::PortfolioScheduler*>(policy.get()))
        for (const auto& [name, count] : pf->selections())
          fp += " " + name + "=" + std::to_string(count);
      ASSERT_LT(k, std::size(pinned));
      EXPECT_EQ(policy->name(), pinned[k].policy);
      EXPECT_EQ(faulty, pinned[k].faulty);
      EXPECT_EQ(fp, pinned[k].fingerprint) << policy->name() << " faulty "
                                           << faulty;
      ++k;
    }
  }
  EXPECT_EQ(k, std::size(pinned));
}
