// Workload `portfolio`: the Table 9 study set, run serially the way the
// table9_portfolio harness runs it. Seven W x Env rows, each with its seven
// plain-policy baselines and one PortfolioScheduler run, plus the [120]
// BigData utility-noise sweep. Nested what-if simulation inside the
// portfolio's tick() is where the slowest paper harness spends its time.

#include <algorithm>
#include <string>
#include <vector>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sched/policies.hpp"
#include "atlarge/sched/portfolio.hpp"
#include "atlarge/sched/simulator.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench.hpp"

namespace e2e {
namespace {

using namespace atlarge;

struct Row {
  std::string name;
  cluster::Environment env;
  workflow::Workload wl;
};

/// Portfolio time of one pass, as seen through TimedPortfolio.
struct Tally {
  double tick_s = 0.0;
  double order_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t whatif_tasks = 0;
};

/// Forwarding wrapper that times the portfolio's tick() and order() from
/// outside. A selection round is a tick() that changed selections(); it
/// simulated every candidate policy on a snapshot of min(queue, cap) tasks.
class TimedPortfolio final : public sched::Policy {
 public:
  TimedPortfolio(sched::PortfolioScheduler& inner, std::size_t candidates,
                 std::size_t snapshot_cap, bool traced, Tally& tally,
                 std::vector<double>& decision_ms)
      : inner_(inner),
        candidates_(candidates),
        snapshot_cap_(snapshot_cap),
        traced_(traced),
        tally_(tally),
        decision_ms_(decision_ms) {}

  std::string name() const override { return inner_.name(); }
  bool backfilling() const override { return inner_.backfilling(); }
  std::unique_ptr<sched::Policy> clone() const override {
    return inner_.clone();
  }

  void order(std::vector<sched::TaskRef>& queue,
             const sched::SchedState& state) override {
    if (!traced_) {
      inner_.order(queue, state);
      return;
    }
    const auto t0 = Clock::now();
    inner_.order(queue, state);
    tally_.order_s += since(t0);
  }

  double tick(const sched::SchedState& state,
              const std::vector<sched::TaskRef>& queue) override {
    const std::size_t before = selections();
    Scope span("portfolio.round", "sched");
    const auto t0 = Clock::now();
    const double overhead = inner_.tick(state, queue);
    const double dt = since(t0);
    tally_.tick_s += dt;
    if (selections() == before) {
      span.drop();
      return overhead;
    }
    ++tally_.rounds;
    tally_.whatif_tasks +=
        candidates_ * std::min(queue.size(), snapshot_cap_);
    decision_ms_.push_back(dt * 1e3);
    return overhead;
  }

 private:
  std::size_t selections() const {
    std::size_t n = 0;
    for (const auto& [policy, count] : inner_.selections()) n += count;
    return n;
  }

  sched::PortfolioScheduler& inner_;
  std::size_t candidates_;
  std::size_t snapshot_cap_;
  bool traced_;
  Tally& tally_;
  std::vector<double>& decision_ms_;
};

/// Every simulated statistic a speed-only change must leave identical.
Digest digest_of(const sched::SchedResult& r) {
  Digest d;
  for (const auto& job : r.jobs) d.f64(job.slowdown());
  d.f64(r.makespan).f64(r.mean_slowdown).u64(r.tasks_completed);
  return d;
}

class PortfolioWorkload final : public Workload {
 public:
  explicit PortfolioWorkload(const Options& o) : o_(o) {}

  void setup() override {
    // The job mix of each row is the one table9_portfolio generates (its
    // fixed per-row seeds, at kJobs jobs); the workload seed moves every
    // job's submit time by up to 2% of the mean inter-arrival gap. Seeds thus
    // change every schedule and selection but not how loaded a row is:
    // regenerating the mix per seed swung a pass by 30% or more, because the
    // cost of a row depends on whether its instance saturates.
    const std::size_t jobs = o_.smoke ? 12 : kJobs;
    const double horizon = 4'000.0 * static_cast<double>(jobs) / 60.0;
    stats::Rng jitter(derive_seed(o_.seed, 1));
    const auto make = [&](workflow::WorkloadClass cls, std::uint64_t seed) {
      workflow::WorkloadSpec spec;
      spec.cls = cls;
      spec.jobs = jobs;
      spec.horizon = horizon;
      spec.seed = seed;
      workflow::Workload wl = workflow::generate(spec);
      const double gap = horizon / static_cast<double>(jobs);
      for (workflow::Job& job : wl.jobs)
        job.submit_time =
            std::max(0.0, job.submit_time + gap * jitter.uniform(-0.02, 0.02));
      wl.normalize();
      return wl;
    };
    using workflow::WorkloadClass;
    rows_.clear();
    const auto add = [&](const char* name, WorkloadClass cls,
                         cluster::Environment env) {
      rows_.push_back({name, std::move(env), make(cls, 100 + rows_.size())});
    };
    add("syn_cl", WorkloadClass::kSynthetic,
        cluster::make_homogeneous_cluster("CL", 4, 8));
    add("sci_grid", WorkloadClass::kScientific, cluster::make_grid("G", 3, 2, 8));
    add("gam_cl", WorkloadClass::kGaming,
        cluster::make_homogeneous_cluster("CL", 4, 8));
    add("ce_gdc", WorkloadClass::kComputerEng,
        cluster::make_geo_distributed("GDC", 3, 2, 8, 0.05));
    add("bc_mcd", WorkloadClass::kBusinessCritical,
        cluster::make_multi_cluster("MCD", 3, 2, 8));
    add("ind_cd", WorkloadClass::kIndustrial,
        cluster::make_cloud("CD", 8, 8, 60.0));
    add("bd_cl", WorkloadClass::kBigData,
        cluster::make_homogeneous_cluster("Cl", 4, 8));
    noise_env_ = cluster::make_homogeneous_cluster("Cl", 4, 8);
    noise_wl_ = make(WorkloadClass::kBigData, 7);
  }

  void pass(Record& record, bool traced) override {
    const auto pass_start = Clock::now();
    obs::Observability plane(0);  // metrics only: the counters it exports
    sched::SimOptions options;
    if (traced) options.obs = &plane;
    Tally tally;
    double single_s = 0.0, portfolio_s = 0.0;
    std::uint64_t tasks = 0, runs = 0;

    const auto run = [&](const std::string& op, const cluster::Environment& env,
                         const workflow::Workload& wl, sched::Policy& policy,
                         const sched::PortfolioScheduler* pf) {
      Scope span("sched.simulate", "sched");
      const std::uint64_t rounds_before = tally.rounds;
      const auto t0 = Clock::now();
      try {
        const sched::SchedResult r = sched::simulate(env, wl, policy, options);
        const double dt = since(t0);
        Digest d = digest_of(r);
        if (pf != nullptr) {
          for (const auto& [name, count] : pf->selections())
            d.text(name).u64(count);
          d.u64(tally.rounds - rounds_before);
        }
        record.ops.record(op, true, d.hex());
        record.op_ms.push_back(dt * 1e3);
        (pf != nullptr ? portfolio_s : single_s) += dt;
        tasks += r.tasks_completed;
        ++runs;
      } catch (const std::exception&) {
        record.ops.record(op, false);
      }
    };
    const auto run_portfolio = [&](const std::string& op,
                                   const cluster::Environment& env,
                                   const workflow::Workload& wl,
                                   sched::PortfolioConfig config) {
      if (traced) config.obs = &plane;
      sched::PortfolioScheduler pf(sched::standard_policies(), env, config);
      TimedPortfolio timed(pf, sched::standard_policies().size(),
                           config.snapshot_cap, traced, tally,
                           record.decision_ms);
      run(op, env, wl, timed, &pf);
    };

    for (const Row& row : rows_) {
      next_cpu();
      for (auto& policy : sched::standard_policies())
        run(row.name + "." + policy->name(), row.env, row.wl, *policy, nullptr);
      run_portfolio(row.name + ".PORTFOLIO", row.env, row.wl, {});
    }
    for (const double noise : {0.0, 1.0, 3.0}) {
      sched::PortfolioConfig config;
      config.utility_noise = noise;
      config.seed = derive_seed(o_.seed, 77);
      next_cpu();
      run_portfolio("noise" + std::to_string(static_cast<int>(noise)),
                    noise_env_, noise_wl_, config);
    }

    const double wall = since(pass_start);
    record.events += tasks;
    // Simulation runs here span four orders of magnitude in size, so the
    // work rate is taken over the whole pass rather than per run.
    record.rate("events_per_s", static_cast<double>(tasks) / wall);
    record.rate("evps_gmean", static_cast<double>(tasks) / wall);
    record.rate("trials_per_s", static_cast<double>(runs) / wall);
    record.decision_per_pass = tally.rounds;
    record.op_per_pass = runs;
    if (!traced) return;
    // The plane's own round counter must agree with the rounds counted
    // from outside.
    record.ops.record(
        "obs.portfolio_rounds",
        plane.metrics.counter("portfolio.rounds").value() == tally.rounds);
    record.layer("sched.tick_s", tally.tick_s);
    record.layer("sched.order_s", tally.order_s);
    record.layer("sched.engine_s", portfolio_s - tally.tick_s - tally.order_s);
    record.layer("sched.single_s", single_s);
    record.layer("sched.rounds", static_cast<double>(tally.rounds));
    record.layer("sched.whatif_tasks", static_cast<double>(tally.whatif_tasks));
    if (tally.whatif_tasks > 0)
      record.layer("sched.whatif_us_per_task",
                   tally.tick_s * 1e6 / static_cast<double>(tally.whatif_tasks));
  }

 private:
  /// Jobs per workload. table9_portfolio uses 60; a pass at 60 jobs takes
  /// about 24 s on one core, so the benchmark runs a smaller instance of
  /// the same study to fit several passes into one run.
  static constexpr std::size_t kJobs = 30;

  Options o_;
  std::vector<Row> rows_;
  cluster::Environment noise_env_;
  workflow::Workload noise_wl_;
};

}  // namespace

std::unique_ptr<Workload> make_portfolio(const Options& options) {
  return std::make_unique<PortfolioWorkload>(options);
}

}  // namespace e2e
