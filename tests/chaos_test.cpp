// Chaos property tests: every fault-aware domain honours the two fault
// plane contracts (null/empty plan == byte-identical baseline; faulted
// runs replay byte-identically, including from a serialized plan), and a
// non-trivial plan demonstrably perturbs each domain. See chaos_util.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "atlarge/autoscale/autoscalers.hpp"
#include "atlarge/autoscale/elastic_sim.hpp"
#include "atlarge/cluster/machine.hpp"
#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/fault/fault.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/obs/slo.hpp"
#include "atlarge/obs/timeseries.hpp"
#include "atlarge/p2p/swarm.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/serverless/workflow_engine.hpp"
#include "atlarge/workflow/generators.hpp"
#include "chaos_util.hpp"

namespace {

using namespace atlarge;
using chaos::exact;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

// ------------------------------------------------------------- serverless --

chaos::Scenario serverless_scenario(fault::RetryPolicy retry) {
  return [retry](const FaultPlan* plan) {
    const auto registry = serverless::uniform_registry(3, 0.2, 1.0);
    stats::Rng rng(5);
    const auto invocations =
        serverless::bursty_invocations(3, 0.05, 4'000.0, 1'000.0, 10, rng);
    serverless::PlatformConfig config;
    config.keep_alive = 300.0;
    config.faults = plan;
    config.retry = retry;
    const auto r = serverless::run_platform(registry, invocations, config);
    return exact(r.success_rate) + "|" + std::to_string(r.failed_invocations) +
           "|" + std::to_string(r.retries) + "|" + exact(r.cold_fraction) +
           "|" + exact(r.p50_latency) + "|" + exact(r.p99_latency) + "|" +
           exact(r.billed_instance_seconds) + "|" +
           std::to_string(r.faults_injected) + "|" +
           std::to_string(r.faults_recovered);
  };
}

FaultPlan serverless_plan() {
  FaultSpec spec;
  spec.rate = 25.0;
  spec.horizon = 4'000.0;
  spec.seed = 11;
  spec.targets = 3;
  spec.mean_duration = 60.0;
  spec.kinds = {FaultKind::kMessageLoss, FaultKind::kMessageDelay,
                FaultKind::kColdStartFailure};
  return FaultPlan::generate(spec);
}

TEST(ChaosServerless, NullAndReplayIdentity) {
  fault::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.timeout = 8.0;
  chaos::check_scenario(serverless_scenario(retry), serverless_plan());
}

TEST(ChaosServerless, FaultsDegradeAndRetriesRecover) {
  const FaultPlan plan = serverless_plan();
  fault::RetryPolicy no_retry;
  no_retry.timeout = 5.0;
  const auto fragile = serverless_scenario(no_retry);
  const std::string clean = fragile(nullptr);
  const std::string faulted = fragile(&plan);
  EXPECT_NE(clean, faulted) << "a 100-event plan left the platform untouched";

  // With retries the platform recovers some of the lost work: strictly
  // fewer failures than the single-attempt run on the same plan.
  const auto count_failed = [](const std::string& fp) {
    const auto a = fp.find('|') + 1;
    return std::stoul(fp.substr(a, fp.find('|', a) - a));
  };
  fault::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.timeout = 5.0;
  const std::string retried = serverless_scenario(retry)(&plan);
  EXPECT_GT(count_failed(fragile(&plan)), 0u);
  EXPECT_LT(count_failed(retried), count_failed(faulted));
}

// ------------------------------------------------------------------ sched --

chaos::Scenario sched_scenario() {
  return [](const FaultPlan* plan) {
    const auto env = cluster::make_homogeneous_cluster("chaos", 4, 2);
    workflow::WorkloadSpec wspec;
    wspec.cls = workflow::WorkloadClass::kIndustrial;
    wspec.jobs = 15;
    wspec.horizon = 1'000.0;
    wspec.seed = 3;
    const auto workload = workflow::generate(wspec);
    sched::FcfsPolicy policy;
    sched::SimOptions options;
    options.faults = plan;
    const auto r = sched::simulate(env, workload, policy, options);
    return exact(r.makespan) + "|" + exact(r.mean_wait) + "|" +
           exact(r.mean_slowdown) + "|" + exact(r.utilization) + "|" +
           std::to_string(r.tasks_completed) + "|" +
           std::to_string(r.faults_injected) + "|" +
           std::to_string(r.faults_recovered) + "|" +
           std::to_string(r.tasks_requeued);
  };
}

FaultPlan sched_plan() {
  FaultSpec spec;
  spec.rate = 20.0;
  spec.horizon = 1'000.0;
  spec.seed = 5;
  spec.targets = 4;
  spec.mean_duration = 50.0;
  spec.kinds = {FaultKind::kMachineCrash, FaultKind::kSlowdown};
  return FaultPlan::generate(spec);
}

TEST(ChaosSched, NullAndReplayIdentity) {
  chaos::check_scenario(sched_scenario(), sched_plan());
}

TEST(ChaosSched, CrashesPerturbTheSchedule) {
  const FaultPlan plan = sched_plan();
  const auto scenario = sched_scenario();
  EXPECT_NE(scenario(nullptr), scenario(&plan));
  const std::string faulted = scenario(&plan);
  const auto injected_field = [](const std::string& fp) {
    std::size_t pos = 0;
    for (int i = 0; i < 5; ++i) pos = fp.find('|', pos) + 1;
    return std::stoul(fp.substr(pos, fp.find('|', pos) - pos));
  };
  EXPECT_EQ(injected_field(faulted), plan.size());
}

// -------------------------------------------------------------- autoscale --

chaos::Scenario autoscale_scenario() {
  return [](const FaultPlan* plan) {
    workflow::WorkloadSpec wspec;
    wspec.cls = workflow::WorkloadClass::kIndustrial;
    wspec.jobs = 20;
    wspec.horizon = 2'000.0;
    wspec.seed = 4;
    const auto workload = workflow::generate(wspec);
    autoscale::ReactAutoscaler react;
    autoscale::ElasticConfig config;
    config.cores_per_machine = 4;
    config.max_machines = 16;
    config.provisioning_delay = 30.0;
    config.interval = 20.0;
    config.faults = plan;
    const auto r = autoscale::run_elastic(workload, react, config);
    double rental_seconds = 0.0;
    for (double rent : r.rentals) rental_seconds += rent;
    return exact(r.makespan) + "|" + exact(r.mean_slowdown) + "|" +
           std::to_string(r.deadline_violations) + "|" +
           std::to_string(r.rentals.size()) + "|" + exact(rental_seconds) +
           "|" + std::to_string(r.faults_injected) + "|" +
           std::to_string(r.faults_recovered) + "|" +
           std::to_string(r.tasks_requeued);
  };
}

FaultPlan autoscale_plan() {
  FaultSpec spec;
  spec.rate = 8.0;
  spec.horizon = 2'000.0;
  spec.seed = 13;
  spec.targets = 16;
  spec.mean_duration = 120.0;
  spec.kinds = {FaultKind::kMachineCrash};
  return FaultPlan::generate(spec);
}

TEST(ChaosAutoscale, NullAndReplayIdentity) {
  chaos::check_scenario(autoscale_scenario(), autoscale_plan());
}

TEST(ChaosAutoscale, CrashesChangeProvisioning) {
  const FaultPlan plan = autoscale_plan();
  const auto scenario = autoscale_scenario();
  EXPECT_NE(scenario(nullptr), scenario(&plan));
}

// -------------------------------------------------------------------- p2p --

chaos::Scenario p2p_scenario() {
  return [](const FaultPlan* plan) {
    stats::Rng rng(2);
    const auto arrivals = p2p::poisson_arrivals(0.05, 2'000.0, rng);
    p2p::SwarmConfig config;
    config.content_mb = 100.0;
    config.seed = 9;
    config.faults = plan;
    const auto r = p2p::simulate_swarm(config, arrivals, 6'000.0);
    return std::to_string(r.finished) + "|" + std::to_string(r.aborted) +
           "|" + std::to_string(r.churned) + "|" +
           std::to_string(r.peak_swarm_size) + "|" +
           exact(r.mean_download_time) + "|" +
           exact(r.median_download_time) + "|" +
           std::to_string(r.series.size());
  };
}

FaultPlan p2p_plan() {
  FaultSpec spec;
  spec.rate = 2.0;
  spec.horizon = 2'000.0;
  spec.seed = 21;
  spec.targets = 1;
  spec.mean_magnitude = 0.5;
  spec.kinds = {FaultKind::kChurnSpike};
  return FaultPlan::generate(spec);
}

TEST(ChaosP2p, NullAndReplayIdentity) {
  chaos::check_scenario(p2p_scenario(), p2p_plan());
}

TEST(ChaosP2p, ChurnSpikesEvictLeechers) {
  const FaultPlan plan = p2p_plan();
  const auto scenario = p2p_scenario();
  const std::string clean = scenario(nullptr);
  const std::string faulted = scenario(&plan);
  EXPECT_NE(clean, faulted);
  const auto churned_field = [](const std::string& fp) {
    std::size_t pos = fp.find('|') + 1;
    pos = fp.find('|', pos) + 1;
    return std::stoul(fp.substr(pos, fp.find('|', pos) - pos));
  };
  EXPECT_EQ(churned_field(clean), 0u);
  EXPECT_GT(churned_field(faulted), 0u);
}

// A single generated plan drives any domain: kinds a domain does not
// handle are ignored (counted, not crashed on), so cross-domain chaos
// campaigns can share one plan.
TEST(ChaosCrossDomain, MixedKindPlanIsSafeEverywhere) {
  FaultSpec spec;
  spec.rate = 10.0;
  spec.horizon = 1'000.0;
  spec.seed = 31;
  spec.targets = 8;  // kinds empty: draw from all six
  const FaultPlan plan = FaultPlan::generate(spec);
  ASSERT_EQ(plan.size(), 10u);
  EXPECT_NO_THROW(sched_scenario()(&plan));
  EXPECT_NO_THROW(autoscale_scenario()(&plan));
  EXPECT_NO_THROW(p2p_scenario()(&plan));
  fault::RetryPolicy retry;
  retry.max_attempts = 2;
  retry.timeout = 10.0;
  EXPECT_NO_THROW(serverless_scenario(retry)(&plan));
}

// ---------------------------------------------------------- SLO detection --

// The telemetry plane must *detect* injected chaos, not merely survive it:
// a seeded cluster-wide outage at a known sim-time has to raise a
// burn-rate alert within a bounded sim-time window, while the same monitor
// stays silent on the clean run. The queue-depth threshold is calibrated
// from the clean run's own maximum rather than hard-coded, so the test
// tracks the workload generator instead of magic constants.

// The crash lands at the workload's backlog peak (arrivals stop at the
// 1000 s horizon; the 8-core cluster drains the queue until ~2500 s), so
// the outage requeues every running task on top of the deepest clean
// backlog — an immediate, sustained breach of the calibrated threshold.
constexpr double kCrashTime = 1'200.0;
constexpr double kOutage = 300.0;
constexpr double kSloSampling = 5.0;

FaultPlan outage_plan() {
  FaultPlan plan;
  for (std::uint32_t machine = 0; machine < 4; ++machine) {
    fault::FaultEvent ev;
    ev.time = kCrashTime;
    ev.kind = FaultKind::kMachineCrash;
    ev.target = machine;
    ev.duration = kOutage;
    plan.add(ev);
  }
  return plan;
}

struct SloRun {
  std::vector<obs::SloAlert> alerts;
  double max_queue = 0.0;
  std::string slo_json;
};

SloRun slo_run(const FaultPlan* plan, double threshold) {
  obs::Observability plane(0);
  obs::SloMonitor slo;
  obs::SloSpec spec;
  spec.name = "sched-queue";
  spec.kind = obs::SloKind::kGaugeAbove;
  spec.objective = 0.5;  // the queue may sit above threshold half the time
  spec.threshold = threshold;
  spec.gauge = &plane.metrics.gauge("sched.eligible_queue");
  spec.fast = {50.0, 1.5};   // >= 75% of the last 50 s saturated
  spec.slow = {200.0, 1.2};  // >= 60% of the last 200 s saturated
  slo.add(spec);
  plane.attach_slo(&slo);
  obs::TimeSeries series(kSloSampling, 8192);
  series.track_gauge("queue", plane.metrics.gauge("sched.eligible_queue"));
  plane.attach_timeseries(&series);
  plane.set_sampling_interval(kSloSampling);

  const auto env = cluster::make_homogeneous_cluster("chaos", 4, 2);
  workflow::WorkloadSpec wspec;
  wspec.cls = workflow::WorkloadClass::kIndustrial;
  wspec.jobs = 15;
  wspec.horizon = 1'000.0;
  wspec.seed = 3;
  const auto workload = workflow::generate(wspec);
  sched::FcfsPolicy policy;
  sched::SimOptions options;
  options.faults = plan;
  options.obs = &plane;
  (void)sched::simulate(env, workload, policy, options);

  SloRun out;
  out.alerts = slo.alerts();
  out.slo_json = slo.json();
  for (std::size_t row = 0; row < series.size(); ++row)
    out.max_queue = std::max(out.max_queue, series.value_at(row, 0));
  return out;
}

TEST(ChaosSlo, SeededOutageIsDetectedWithinBoundedSimTime) {
  // Calibrate: with an unreachable threshold the monitor never counts a
  // bad evaluation, and the series records the clean queue-depth ceiling.
  const SloRun probe = slo_run(nullptr, 1e18);
  ASSERT_TRUE(probe.alerts.empty());
  const double threshold = probe.max_queue + 1.0;

  // Clean run against the calibrated threshold: still silent.
  const SloRun clean = slo_run(nullptr, threshold);
  EXPECT_TRUE(clean.alerts.empty())
      << "burn-rate alert on a fault-free run: " << clean.slo_json;

  // Cluster-wide outage at kCrashTime: the queue backs up past any level
  // the clean run reached, and both windows must burn before the outage
  // ends — detection latency is bounded by the slow-window span plus one
  // sampling interval after the backlog first exceeds the threshold.
  const FaultPlan plan = outage_plan();
  const SloRun faulted = slo_run(&plan, threshold);
  ASSERT_FALSE(faulted.alerts.empty())
      << "outage never tripped the burn-rate monitor: " << faulted.slo_json;
  EXPECT_GT(faulted.max_queue, probe.max_queue);
  const obs::SloAlert& first = faulted.alerts.front();
  EXPECT_GT(first.time, kCrashTime);
  EXPECT_LE(first.time, kCrashTime + kOutage)
      << "alert raised only after the outage had already ended";
  EXPECT_GE(first.burn_fast, 1.5);
  EXPECT_GE(first.burn_slow, 1.2);
}

// ----------------------------------------------------------- ecosystem ----
//
// The eco composition layer binds every domain to one fabric, so a single
// kMachineCrash plan must ripple through all of them at once: serverless
// warm pools die with their host machine (cold starts and denials go up),
// the autoscaler finds fewer idle machines to lease (zone capacity arrives
// later, logins queue longer), and the shared-fabric scheduler requeues the
// tasks that were running on the lost machine.

eco::EcosystemSpec chaos_eco_spec() {
  eco::EcosystemSpec spec;
  spec.horizon = 2400.0;
  spec.fabric.machines = 8;
  spec.fabric.cores_per_machine = 4;
  spec.fabric.provisioning_delay = 45.0;

  spec.serverless.enabled = true;
  spec.serverless.backing = eco::ServerlessBacking::kCluster;
  spec.serverless.instance_cores = 1;
  spec.serverless.registry = {{"frontend", 0.1, 1.0, 128.0}};
  spec.serverless.config.keep_alive = 600.0;
  spec.serverless.config.prewarmed = 0;
  stats::Rng faas_rng(97);
  spec.serverless.invocations = serverless::bursty_invocations(
      1, 0.2, spec.horizon, 400.0, 12, faas_rng);

  spec.mmog.enabled = true;
  spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
  spec.mmog.autoscaler = "React";
  spec.mmog.avatars_per_machine = 16;
  spec.mmog.report_interval = 20.0;
  spec.mmog.initial_machines = 0;
  spec.mmog.config.zones = 4;
  spec.mmog.config.act_mean = 25.0;
  spec.mmog.config.migrate_prob = 0.1;
  spec.mmog.config.crossing_time = 5.0;
  spec.mmog.config.session_mean = 6000.0;
  spec.mmog.config.seed = 7;
  spec.mmog.arrivals = mmog::synthetic_zone_arrivals(300, 4, 2200.0, 7);

  spec.dags.enabled = true;
  spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
  spec.dags.policy = "FCFS";
  workflow::WorkloadSpec jobs;
  jobs.cls = workflow::WorkloadClass::kSynthetic;
  jobs.jobs = 24;
  jobs.horizon = 2000.0;
  jobs.seed = 31;
  spec.dags.workload = workflow::generate(jobs);
  return spec;
}

std::string eco_fingerprint(const eco::EcosystemResult& r) {
  return r.summary() +
         "faas_dig=" + chaos::digest_fingerprint(r.faas.latency_digest) +
         "\nzone_dig=" + chaos::digest_fingerprint(r.zones.session_digest) +
         "\n";
}

chaos::Scenario eco_scenario() {
  return [](const FaultPlan* plan) {
    eco::EcosystemSpec spec = chaos_eco_spec();
    spec.faults = plan;
    return eco_fingerprint(eco::run_ecosystem(spec));
  };
}

FaultPlan eco_crash_plan() {
  FaultSpec fs;
  fs.horizon = 2200.0;
  fs.rate = 15.0;  // ~33 crashes: every fabric machine gets hit
  fs.targets = 8;
  fs.seed = 4242;
  fs.mean_duration = 150.0;
  fs.kinds = {FaultKind::kMachineCrash};
  return FaultPlan::generate(fs);
}

TEST(ChaosEcosystem, NullAndReplayIdentity) {
  chaos::check_scenario(eco_scenario(), eco_crash_plan());
}

TEST(ChaosEcosystem, MachineCrashPropagatesAcrossDomains) {
  const FaultPlan plan = eco_crash_plan();
  eco::EcosystemSpec spec = chaos_eco_spec();
  const eco::EcosystemResult calm = eco::run_ecosystem(spec);
  spec.faults = &plan;
  const eco::EcosystemResult hurt = eco::run_ecosystem(spec);

  // The plan actually landed on the shared fabric.
  ASSERT_GT(hurt.fabric.crashes, 0u);
  EXPECT_EQ(calm.fabric.crashes, 0u);

  // Serverless: losing the host machine kills the warm pool, so the same
  // invocation stream pays more cold starts (and fails while the machine is
  // down), which shows up in the latency distribution.
  EXPECT_GT(hurt.faas.cold_fraction, calm.faas.cold_fraction);
  EXPECT_GE(hurt.faas.failed_invocations, calm.faas.failed_invocations);
  EXPECT_NE(chaos::digest_fingerprint(hurt.faas.latency_digest),
            chaos::digest_fingerprint(calm.faas.latency_digest));

  // Autoscale: down machines cannot be leased, so zone capacity arrives on a
  // different trajectory and login admission shifts with it.
  EXPECT_NE(hurt.zones.queued_logins, calm.zones.queued_logins);
  EXPECT_NE(chaos::digest_fingerprint(hurt.zones.session_digest),
            chaos::digest_fingerprint(calm.zones.session_digest));

  // Scheduler: tasks running on the crashed machine are requeued.
  EXPECT_GT(hurt.dags.tasks_requeued, calm.dags.tasks_requeued);

  // The whole cascade is deterministic across shard/thread layouts.
  spec.shards = 3;
  spec.threads = 4;
  EXPECT_EQ(eco_fingerprint(hurt), eco_fingerprint(eco::run_ecosystem(spec)));
}

}  // namespace
