#include "atlarge/autoscale/elastic_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::autoscale {
namespace {

enum class TaskStatus : std::uint8_t { kPending, kEligible, kRunning, kDone };

struct TaskState {
  TaskStatus status = TaskStatus::kPending;
  std::uint32_t remaining_deps = 0;
  double eligible_time = 0.0;
  double expected_finish = 0.0;  // valid while running
  std::uint32_t machine = 0;     // valid while running
  sim::EventHandle completion;   // valid while running
  std::int32_t blame = -1;       // crash event that killed this task last
};

struct JobState {
  const workflow::Job* job = nullptr;
  std::vector<TaskState> tasks;
  std::size_t remaining = 0;
  double start = -1.0;
  double finish = -1.0;
  bool arrived = false;
};

struct MachineInst {
  std::uint32_t free = 0;
  double rental_start = 0.0;
  bool alive = false;
};

class ElasticEngine {
 public:
  ElasticEngine(const workflow::Workload& workload, Autoscaler& autoscaler,
                const ElasticConfig& config)
      : autoscaler_(autoscaler), config_(config), obs_(config.obs) {
    if (obs_ != nullptr) {
      ticks_ = &obs_->metrics.counter("autoscale.ticks");
      added_ = &obs_->metrics.counter("autoscale.machines_added");
      removed_ = &obs_->metrics.counter("autoscale.machines_removed");
      supply_gauge_ = &obs_->metrics.gauge("autoscale.supply_cores");
      demand_gauge_ = &obs_->metrics.gauge("autoscale.demand_cores");
    }
    jobs_.reserve(workload.jobs.size());
    for (const auto& job : workload.jobs) {
      for (const auto& t : job.tasks) {
        if (t.cores > config.cores_per_machine)
          throw std::invalid_argument(
              "run_elastic: task wider than one machine");
      }
      JobState js;
      js.job = &job;
      js.remaining = job.tasks.size();
      js.tasks.resize(job.tasks.size());
      for (std::size_t ti = 0; ti < job.tasks.size(); ++ti)
        js.tasks[ti].remaining_deps =
            static_cast<std::uint32_t>(job.tasks[ti].deps.size());
      jobs_.push_back(std::move(js));
    }
  }

  ElasticResult run() {
    if (obs_ != nullptr) {
      sim_.set_observer(obs_->kernel_observer());
      if (obs_->sampling_hook() != nullptr)
        sim_.set_sampling_hook(obs_->sampling_hook(),
                               obs_->sampling_interval());
      obs_->tracer.begin("autoscale.run", "autoscale", sim_.now());
    }
    // Pre-size the kernel: one arrival per job, one completion per
    // in-flight task, one autoscaler tick, one provisioning timer, and
    // two timers per fault event.
    std::size_t total_tasks = 0;
    for (const JobState& js : jobs_) total_tasks += js.tasks.size();
    const std::size_t fault_events =
        config_.faults != nullptr ? config_.faults->events().size() : 0;
    sim_.reserve(jobs_.size() + total_tasks + 2 * fault_events + 8);
    if (config_.faults != nullptr && !config_.faults->empty()) {
      injector_.emplace(*config_.faults, obs_);
      injector_->on_kind(fault::FaultKind::kMachineCrash,
                         [this](const fault::FaultEvent& e) { crash(e); });
      injector_->attach(sim_);
    }
    for (std::uint32_t i = 0; i < config_.min_machines; ++i) add_machine();
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji)
      sim_.schedule_at(jobs_[ji].job->submit_time, [this, ji] { arrive(ji); });
    sim_.schedule_at(0.0, [this] { tick(); });
    sim_.run();
    finalize();
    if (obs_ != nullptr)
      obs_->tracer.end("autoscale.run", "autoscale", sim_.now());
    return std::move(result_);
  }

 private:
  std::uint32_t alive_machines() const {
    std::uint32_t n = 0;
    for (const auto& m : machines_)
      if (m.alive) ++n;
    return n;
  }

  void add_machine() {
    if (added_ != nullptr) added_->add(1);
    // Reuse a dead slot if any, else grow.
    for (auto& m : machines_) {
      if (!m.alive) {
        m.alive = true;
        m.free = config_.cores_per_machine;
        m.rental_start = sim_.now();
        return;
      }
    }
    machines_.push_back(
        MachineInst{config_.cores_per_machine, sim_.now(), true});
  }

  void remove_machine(std::size_t mi) {
    auto& m = machines_[mi];
    m.alive = false;
    result_.rentals.push_back(sim_.now() - m.rental_start);
    if (removed_ != nullptr) removed_->add(1);
  }

  double demand_cores() const {
    double demand = 0.0;
    for (const auto& js : jobs_) {
      if (!js.arrived) continue;
      for (std::size_t ti = 0; ti < js.tasks.size(); ++ti) {
        const auto s = js.tasks[ti].status;
        if (s == TaskStatus::kEligible || s == TaskStatus::kRunning)
          demand += js.job->tasks[ti].cores;
      }
    }
    return demand;
  }

  /// Cores of pending tasks whose unfinished dependencies are all running
  /// and expected to finish within one decision interval.
  double lop_soon_cores() const {
    double lop = 0.0;
    const double horizon = sim_.now() + config_.interval;
    for (const auto& js : jobs_) {
      if (!js.arrived) continue;
      for (std::size_t ti = 0; ti < js.tasks.size(); ++ti) {
        if (js.tasks[ti].status != TaskStatus::kPending) continue;
        bool soon = true;
        for (auto dep : js.job->tasks[ti].deps) {
          const auto& ds = js.tasks[dep];
          if (ds.status == TaskStatus::kDone) continue;
          if (ds.status == TaskStatus::kRunning &&
              ds.expected_finish <= horizon)
            continue;
          soon = false;
          break;
        }
        if (soon) lop += js.job->tasks[ti].cores;
      }
    }
    return lop;
  }

  void tick() {
    if (obs_ != nullptr) {
      ticks_->add(1);
      obs_->tracer.begin("autoscale.tick", "autoscale", sim_.now());
    }
    const double demand = demand_cores();
    Observation obs;
    obs.now = sim_.now();
    obs.demand_cores = demand;
    obs.supply_machines = alive_machines();
    obs.pending_machines = pending_;
    obs.cores_per_machine = config_.cores_per_machine;
    obs.queued_tasks = eligible_.size();
    obs.lop_soon_cores = lop_soon_cores();

    const std::uint32_t target =
        std::clamp(autoscaler_.target_machines(obs), config_.min_machines,
                   config_.max_machines);
    const std::uint32_t current = obs.supply_machines + pending_;
    if (target > current) {
      const std::uint32_t add = target - current;
      pending_ += add;
      for (std::uint32_t i = 0; i < add; ++i) {
        sim_.schedule_after(config_.provisioning_delay, [this] {
          --pending_;
          add_machine();
          place();
        });
      }
    } else if (target < current) {
      std::uint32_t to_remove = current - target;
      // Prefer draining idle machines now; the rest drain on idle.
      for (std::size_t mi = 0; mi < machines_.size() && to_remove > 0;
           ++mi) {
        if (machines_[mi].alive &&
            machines_[mi].free == config_.cores_per_machine &&
            alive_machines() > config_.min_machines) {
          remove_machine(mi);
          --to_remove;
        }
      }
      drain_quota_ = to_remove;
    }

    const double supply =
        static_cast<double>(alive_machines()) * config_.cores_per_machine;
    result_.series.push_back(SupplyDemandPoint{sim_.now(), demand, supply});
    if (obs_ != nullptr) {
      supply_gauge_->set(supply);
      demand_gauge_->set(demand);
      obs_->tracer.end("autoscale.tick", "autoscale", sim_.now());
    }

    if (completed_jobs_ < jobs_.size()) {
      sim_.schedule_after(config_.interval, [this] { tick(); });
    }
  }

  void arrive(std::size_t ji) {
    auto& js = jobs_[ji];
    js.arrived = true;
    for (std::size_t ti = 0; ti < js.tasks.size(); ++ti) {
      if (js.tasks[ti].remaining_deps == 0) {
        js.tasks[ti].status = TaskStatus::kEligible;
        js.tasks[ti].eligible_time = sim_.now();
        eligible_.emplace_back(ji, ti);
      }
    }
    place();
  }

  void crash(const fault::FaultEvent& e) {
    // Pick the victim among currently alive machines (deterministic:
    // target reduced modulo the alive count, in slot order).
    std::vector<std::size_t> alive;
    for (std::size_t mi = 0; mi < machines_.size(); ++mi)
      if (machines_[mi].alive) alive.push_back(mi);
    if (alive.empty()) return;
    const std::size_t mi = alive[e.target % alive.size()];

    // Kill every task running on it; victims re-queue and rerun from
    // scratch. The capacity loss itself heals through the autoscaler's
    // ordinary provisioning path.
    crash_events_.push_back(e);
    const auto blame = static_cast<std::int32_t>(crash_events_.size() - 1);
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      auto& js = jobs_[ji];
      for (std::size_t ti = 0; ti < js.tasks.size(); ++ti) {
        auto& ts = js.tasks[ti];
        if (ts.status != TaskStatus::kRunning || ts.machine != mi) continue;
        ts.completion.cancel();
        ts.status = TaskStatus::kEligible;
        ts.eligible_time = sim_.now();
        ts.blame = blame;
        eligible_.emplace_back(ji, ti);
        ++result_.tasks_requeued;
      }
    }
    remove_machine(mi);
    place();
  }

  void place() {
    // FCFS: by job submit time, then eligibility, then ids. The eligible
    // deque is appended in that order already except across jobs; sort to
    // be exact.
    std::sort(eligible_.begin(), eligible_.end(),
              [this](const auto& a, const auto& b) {
                const double sa = jobs_[a.first].job->submit_time;
                const double sb = jobs_[b.first].job->submit_time;
                if (sa != sb) return sa < sb;
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;
              });
    for (auto it = eligible_.begin(); it != eligible_.end();) {
      const auto [ji, ti] = *it;
      const std::uint32_t cores = jobs_[ji].job->tasks[ti].cores;
      std::size_t target = machines_.size();
      for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
        if (machines_[mi].alive && machines_[mi].free >= cores) {
          target = mi;
          break;
        }
      }
      if (target == machines_.size()) {
        ++it;  // no capacity; keep FCFS order but try narrower tasks
        continue;
      }
      it = eligible_.erase(it);
      start_task(ji, ti, target);
    }
  }

  void start_task(std::size_t ji, std::size_t ti, std::size_t mi) {
    auto& js = jobs_[ji];
    const auto& task = js.job->tasks[ti];
    auto& ts = js.tasks[ti];
    ts.status = TaskStatus::kRunning;
    ts.expected_finish = sim_.now() + task.runtime;
    ts.machine = static_cast<std::uint32_t>(mi);
    if (js.start < 0.0) js.start = sim_.now();
    machines_[mi].free -= task.cores;
    ts.completion = sim_.schedule_after(
        task.runtime, [this, ji, ti, mi] { finish_task(ji, ti, mi); });
    if (ts.blame >= 0) {
      // A crash victim restarted on a surviving machine: recovered.
      if (injector_.has_value())
        injector_->recovered(crash_events_[static_cast<std::size_t>(ts.blame)],
                             sim_.now());
      ts.blame = -1;
    }
  }

  void finish_task(std::size_t ji, std::size_t ti, std::size_t mi) {
    auto& js = jobs_[ji];
    const auto& task = js.job->tasks[ti];
    js.tasks[ti].status = TaskStatus::kDone;
    machines_[mi].free += task.cores;

    // Drain-on-idle if the autoscaler asked for fewer machines.
    if (drain_quota_ > 0 && machines_[mi].free == config_.cores_per_machine &&
        alive_machines() > config_.min_machines) {
      remove_machine(mi);
      --drain_quota_;
    }

    for (std::size_t other = 0; other < js.job->tasks.size(); ++other) {
      if (js.tasks[other].status != TaskStatus::kPending) continue;
      const auto& deps = js.job->tasks[other].deps;
      if (std::find(deps.begin(), deps.end(),
                    static_cast<workflow::TaskId>(ti)) == deps.end())
        continue;
      if (--js.tasks[other].remaining_deps == 0) {
        js.tasks[other].status = TaskStatus::kEligible;
        js.tasks[other].eligible_time = sim_.now();
        eligible_.emplace_back(ji, other);
      }
    }

    if (--js.remaining == 0) {
      js.finish = sim_.now();
      ++completed_jobs_;
    }
    place();
  }

  void finalize() {
    std::vector<double> slowdowns;
    std::vector<double> responses;
    for (const auto& js : jobs_) {
      if (js.finish < 0.0) continue;
      sched::JobStats stats;
      stats.id = js.job->id;
      stats.submit = js.job->submit_time;
      stats.start = js.start;
      stats.finish = js.finish;
      stats.critical_path = js.job->critical_path();
      result_.makespan = std::max(result_.makespan, js.finish);
      slowdowns.push_back(stats.slowdown());
      responses.push_back(stats.response());
      if (config_.sla_factor > 0.0) {
        ++result_.deadline_total;
        if (js.finish > js.job->submit_time +
                            config_.sla_factor * stats.critical_path)
          ++result_.deadline_violations;
      }
      result_.jobs.push_back(stats);
    }
    result_.mean_slowdown = stats::mean(slowdowns);
    result_.median_slowdown = stats::quantile(slowdowns, 0.5);
    result_.mean_response = stats::mean(responses);
    for (const double s : slowdowns) result_.slowdown_digest.add(s);
    if (obs_ != nullptr)
      obs_->metrics.digest("autoscale.job_slowdown")
          .merge(result_.slowdown_digest);
    for (auto& m : machines_) {
      if (m.alive) {
        result_.rentals.push_back(result_.makespan - m.rental_start);
        m.alive = false;
      }
    }
    result_.metrics = compute_metrics(result_.series, result_.makespan);
    if (injector_.has_value()) {
      result_.faults_injected = injector_->injected();
      result_.faults_recovered = injector_->recovered_count();
    }
  }

  Autoscaler& autoscaler_;
  ElasticConfig config_;
  sim::Simulation sim_;
  std::vector<JobState> jobs_;
  std::vector<MachineInst> machines_;
  std::deque<std::pair<std::size_t, std::size_t>> eligible_;
  std::uint32_t pending_ = 0;
  std::uint32_t drain_quota_ = 0;
  std::size_t completed_jobs_ = 0;
  std::optional<fault::Injector> injector_;
  std::vector<fault::FaultEvent> crash_events_;
  ElasticResult result_;

  // Instrumentation plane; metric handles are resolved once in the ctor so
  // the hot path never does a name lookup.
  obs::Observability* obs_ = nullptr;
  obs::Counter* ticks_ = nullptr;
  obs::Counter* added_ = nullptr;
  obs::Counter* removed_ = nullptr;
  obs::Gauge* supply_gauge_ = nullptr;
  obs::Gauge* demand_gauge_ = nullptr;
};

}  // namespace

ElasticResult run_elastic(const workflow::Workload& workload,
                          Autoscaler& autoscaler,
                          const ElasticConfig& config) {
  ElasticEngine engine(workload, autoscaler, config);
  return engine.run();
}

}  // namespace atlarge::autoscale
