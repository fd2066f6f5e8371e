#pragma once
// Cluster scheduling simulator: the in-silico testbed for Table 9 and for
// every nested what-if simulation the portfolio scheduler runs.
//
// Semantics:
//  * A task needs `cores` on a *single* machine; runtime scales inversely
//    with machine speed. Tasks whose core demand exceeds every machine, and
//    jobs that share an id, are rejected at ingest (std::invalid_argument).
//  * On every scheduling event the eligible queue is put in policy order
//    (kept sorted by a static-order policy's key, else sorted by the
//    policy's order()); the simulator then places tasks greedily in that
//    order, skipping tasks that do not currently fit ("first fit in policy
//    order"). Policies with backfilling() == true instead protect the
//    queue head with an EASY-style reservation: a later task may overtake
//    only if it finishes before the head's earliest feasible start.
//  * Geo-distributed environments charge env.inter_cluster_latency once
//    per task dispatched outside cluster 0.
//  * Policy::tick (called on policies without a static order key) may
//    return a decision overhead; the simulator freezes placement (but not
//    arrivals/completions) for that long, modeling the paper's finding
//    that portfolio simulation time can make a scheduler "no longer ...
//    run online".

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "atlarge/cluster/machine.hpp"
#include "atlarge/obs/digest.hpp"
#include "atlarge/sched/policy.hpp"
#include "atlarge/workflow/job.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::fault {
class FaultPlan;
}

namespace atlarge::sim {
class Simulation;
}

namespace atlarge::sched {

struct JobStats {
  std::uint64_t id = 0;
  double submit = 0.0;
  double start = 0.0;    // first task start
  double finish = 0.0;   // last task finish
  double critical_path = 0.0;

  double response() const noexcept { return finish - submit; }
  double wait() const noexcept { return start - submit; }
  /// Bounded slowdown: response over critical path, floored at 1.
  double slowdown() const noexcept;
};

struct SchedResult {
  std::vector<JobStats> jobs;
  double makespan = 0.0;          // latest finish time
  double mean_wait = 0.0;
  double mean_slowdown = 0.0;
  double median_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double p999_slowdown = 0.0;
  double utilization = 0.0;       // time-weighted busy/total cores
  double decision_overhead = 0.0; // total policy tick() seconds
  std::size_t tasks_completed = 0;
  /// Per-machine busy seconds, indexed by flat machine id; feeds the cloud
  /// cost models.
  std::vector<double> machine_busy_seconds;
  /// Portfolio bookkeeping: how often each policy was selected (empty for
  /// plain policies).
  std::map<std::string, std::size_t> selections;
  /// Fault outcomes (all zero with a null/empty plan): injections applied,
  /// machines restarted / slowdowns healed, and tasks killed by a crash
  /// and re-queued (they rerun from scratch).
  std::size_t faults_injected = 0;
  std::size_t faults_recovered = 0;
  std::size_t tasks_requeued = 0;
  /// Mergeable percentile digests over per-job wait and bounded slowdown
  /// (same populations as the exact mean/median/p95 fields above). These
  /// are what campaign aggregation merges across trials; the exact fields
  /// stay for single-run precision.
  obs::Digest wait_digest;
  obs::Digest slowdown_digest;
};

struct SimOptions {
  /// Hard stop; jobs not finished by then are excluded from job stats but
  /// counted in utilization.
  double time_limit = std::numeric_limits<double>::infinity();
  /// Optional instrumentation plane (not owned, may be null): attaches
  /// the kernel observer to the internal Simulation and emits
  /// scheduler-level spans ("sched.simulate", per-pass "sched.pass") and
  /// metrics (sched.passes, sched.tasks_placed, sched.eligible_queue, and
  /// a sched.task_wait registry digest). When the plane carries a
  /// TimeSeries or SloMonitor, its sampling hook is attached to the
  /// kernel; when it carries a FlightRecorder, per-machine rings record
  /// place/complete/crash/requeue events with causal links.
  obs::Observability* obs = nullptr;
  /// Optional fault plan (not owned, may be null), replayed through the
  /// a fault::Injector. The scheduler interprets kMachineCrash (machine
  /// down for the event's duration; its running tasks are killed and
  /// re-queued, restarting from scratch) and kSlowdown (machine limps at
  /// base speed x magnitude for the duration; affects new placements).
  /// A null or empty plan keeps behaviour byte-identical.
  const fault::FaultPlan* faults = nullptr;
};

/// Runs `workload` on `env` under `policy`. Deterministic for fixed inputs.
SchedResult simulate(const cluster::Environment& env,
                     const workflow::Workload& workload, Policy& policy,
                     const SimOptions& options = {});

namespace detail {
class SchedEngine;
}

/// Composable form of the scheduling simulator: the same engine `simulate`
/// runs, but driven by an externally owned kernel so several domain
/// simulators can share one clock (eco::Ecosystem). The driver schedules
/// its arrivals and fault injections in prepare(), the caller runs the shared
/// kernel, and collect() finalizes the result. With no seam calls the
/// event stream is byte-identical to a standalone simulate() run.
///
/// The reserve/release seam lets a co-tenant (the eco cluster fabric)
/// take cores out of the scheduler's machines while it holds leases on
/// them, so placement contention between domains is real: reserved cores
/// are indistinguishable from cores occupied by running tasks.
class SchedDriver {
 public:
  /// `env`, `workload`, `policy`, and `sim` must outlive the driver.
  /// `options.faults` attaches the scheduler's own injector exactly as in
  /// standalone runs; pass a null plan when a composition layer routes
  /// machine crashes through fail_machine() instead.
  SchedDriver(const cluster::Environment& env,
              const workflow::Workload& workload, Policy& policy,
              const SimOptions& options, sim::Simulation& sim);
  ~SchedDriver();
  SchedDriver(const SchedDriver&) = delete;
  SchedDriver& operator=(const SchedDriver&) = delete;

  /// Schedules fault injections and job arrivals on the shared kernel.
  void prepare();
  /// Finalizes statistics after the shared kernel has run. The result is
  /// independent of the kernel's final clock: stats derive from job
  /// submit/finish times only.
  SchedResult collect();

  // ---- fabric seam (all calls must come from the kernel's own events) --
  std::size_t machine_count() const;
  std::uint32_t free_cores_on(std::size_t machine) const;
  std::uint32_t total_cores_on(std::size_t machine) const;
  bool machine_down(std::size_t machine) const;
  /// Takes `cores` from a machine for an external tenant. Fails (false)
  /// when the machine is down or short on free cores.
  bool reserve_cores(std::size_t machine, std::uint32_t cores);
  /// Returns externally held cores and wakes the placement loop.
  void release_cores(std::size_t machine, std::uint32_t cores);
  /// Crashes a machine for `duration` seconds: running tasks are killed
  /// and re-queued exactly as a kMachineCrash fault would, but without an
  /// injector (the composition layer owns the fault bookkeeping).
  void fail_machine(std::size_t machine, double duration);

 private:
  std::unique_ptr<detail::SchedEngine> engine_;
};

}  // namespace atlarge::sched
