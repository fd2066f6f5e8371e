#include "atlarge/sched/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/descriptive.hpp"

namespace atlarge::sched {

double JobStats::slowdown() const noexcept {
  if (critical_path <= 0.0) return 1.0;
  return std::max(1.0, response() / critical_path);
}

namespace detail {

enum class TaskStatus : std::uint8_t { kPending, kEligible, kRunning, kDone };

struct TaskState {
  TaskStatus status = TaskStatus::kPending;
  std::uint32_t remaining_deps = 0;
  double eligible_time = 0.0;
};

struct JobState {
  const workflow::Job* job = nullptr;
  std::vector<TaskState> tasks;
  std::size_t remaining = 0;
  double start = -1.0;
  double finish = -1.0;
  bool arrived = false;
};

struct MachineState {
  std::uint32_t total = 0;
  std::uint32_t free = 0;
  double speed = 1.0;
  std::uint32_t cluster = 0;
  double base_speed = 1.0;   // speed to restore after a slowdown heals
  double slow_until = 0.0;   // end of the widest slowdown window
  bool down = false;         // crashed, awaiting restart
};

/// An eligible task; `key` is set on the static-order path only.
struct Queued {
  OrderKey key;
  std::uint32_t ji = 0;
  std::uint32_t ti = 0;
};

struct RunningTask {
  double finish = 0.0;
  std::uint32_t machine = 0;
  std::uint32_t cores = 0;
  std::size_t ji = 0;
  std::size_t ti = 0;
  std::uint64_t place_seq = 0;  // flight-recorder causal link
  sim::EventHandle completion;
};

class SchedEngine {
 public:
  SchedEngine(const cluster::Environment& env,
              const workflow::Workload& workload, Policy& policy,
              const SimOptions& options, sim::Simulation* external = nullptr)
      : env_(env),
        policy_(policy),
        options_(options),
        obs_(options.obs),
        owned_(external != nullptr ? nullptr
                                   : std::make_unique<sim::Simulation>()),
        sim_(external != nullptr ? *external : *owned_),
        external_(external != nullptr) {
    if (obs_ != nullptr) {
      // A shared kernel's observer/sampling hooks belong to whoever owns
      // the kernel (the composition layer); attach only to an owned one.
      if (!external_) {
        sim_.set_observer(obs_->kernel_observer());
        if (obs_->sampling_hook() != nullptr)
          sim_.set_sampling_hook(obs_->sampling_hook(),
                                 obs_->sampling_interval());
      }
      passes_ = &obs_->metrics.counter("sched.passes");
      placed_ = &obs_->metrics.counter("sched.tasks_placed");
      queue_depth_ = &obs_->metrics.gauge("sched.eligible_queue");
      wait_hist_ = &obs_->metrics.histogram("sched.task_wait");
      wait_dig_ = &obs_->metrics.digest("sched.task_wait");
      flight_ = obs_->flight();
    }
    const auto machines = env.all_machines();
    if (machines.empty())
      throw std::invalid_argument("simulate: environment has no machines");
    std::uint32_t max_cores = 0;
    machines_.reserve(machines.size());
    for (const auto& m : machines) {
      MachineState ms;
      ms.total = m.cores;
      ms.free = m.cores;
      ms.speed = m.speed;
      ms.cluster = m.cluster;
      ms.base_speed = m.speed;
      machines_.push_back(ms);
      max_cores = std::max(max_cores, m.cores);
    }
    result_.machine_busy_seconds.assign(machines_.size(), 0.0);
    if (flight_ != nullptr) {
      flight_entity_.reserve(machines_.size());
      for (std::size_t mi = 0; mi < machines_.size(); ++mi)
        flight_entity_.push_back(
            flight_->entity("machine/" + std::to_string(mi)));
    }

    OrderKey probe;
    static_order_ = policy_.order_key(TaskRef{}, probe);

    jobs_.reserve(workload.jobs.size());
    job_index_.reserve(workload.jobs.size());
    for (const auto& job : workload.jobs) {
      for (const auto& t : job.tasks) {
        // place_in_order() stops once no machine has a free core, which is
        // exact only because every task needs at least one.
        if (t.cores == 0)
          throw std::invalid_argument("simulate: task demands zero cores");
        if (t.cores > max_cores)
          throw std::invalid_argument(
              "simulate: task demands more cores than any machine offers");
      }
      job_index_.emplace_back(job.id, jobs_.size());
      JobState js;
      js.job = &job;
      js.remaining = job.tasks.size();
      js.tasks.resize(job.tasks.size());
      for (std::size_t ti = 0; ti < job.tasks.size(); ++ti)
        js.tasks[ti].remaining_deps =
            static_cast<std::uint32_t>(job.tasks[ti].deps.size());
      jobs_.push_back(std::move(js));
    }
    std::sort(job_index_.begin(), job_index_.end());
    for (std::size_t i = 1; i < job_index_.size(); ++i) {
      if (job_index_[i].first == job_index_[i - 1].first)
        throw std::invalid_argument(
            "simulate: duplicate job id (Workload::normalize assigns "
            "distinct ids)");
    }

    // Pre-size the kernel for the run's concurrent-event ceiling: one
    // arrival per job, at most one in-flight completion per task, one
    // pending scheduling pass, and two timers per fault event. A matched
    // reserve makes the steady state allocation-free (sim.alloc_events
    // stays 0 under the kernel observer; pinned by sched_test).
    std::size_t total_tasks = 0;
    for (const auto& job : workload.jobs) total_tasks += job.tasks.size();
    const std::size_t fault_events =
        options.faults != nullptr ? options.faults->events().size() : 0;
    sim_.reserve(workload.jobs.size() + total_tasks + 2 * fault_events + 8);
  }

  void prepare() {
    if (obs_ != nullptr)
      obs_->tracer.begin("sched.simulate", "sched", sim_.now());
    if (options_.faults != nullptr && !options_.faults->empty())
      attach_faults();
    for (std::size_t ji = 0; ji < jobs_.size(); ++ji) {
      sim_.schedule_at(jobs_[ji].job->submit_time,
                       [this, ji] { arrive(ji); });
    }
  }

  SchedResult collect() {
    finalize();
    if (obs_ != nullptr)
      obs_->tracer.end("sched.simulate", "sched", sim_.now());
    return std::move(result_);
  }

  SchedResult run() {
    prepare();
    sim_.run_until(options_.time_limit);
    return collect();
  }

  // ---- fabric seam ----------------------------------------------------

  std::size_t machine_count() const { return machines_.size(); }
  std::uint32_t free_cores_on(std::size_t mi) const {
    return machines_[mi].free;
  }
  std::uint32_t total_cores_on(std::size_t mi) const {
    return machines_[mi].total;
  }
  bool machine_is_down(std::size_t mi) const { return machines_[mi].down; }

  bool reserve_cores(std::size_t mi, std::uint32_t cores) {
    auto& m = machines_[mi];
    if (m.down || m.free < cores) return false;
    m.free -= cores;
    observe_busy();
    return true;
  }

  void release_cores(std::size_t mi, std::uint32_t cores) {
    auto& m = machines_[mi];
    m.free = std::min(m.total, m.free + cores);
    observe_busy();
    if (!queue_.empty()) request_pass();
  }

  void fail_machine(std::size_t mi, double duration) {
    if (machines_[mi].down) return;
    kill_machine(mi, duration);
    sim_.schedule_after(duration, [this, mi] {
      machines_[mi].down = false;
      request_pass();
    });
    request_pass();
  }

 private:
  void attach_faults() {
    injector_.emplace(*options_.faults, obs_);
    injector_->on_kind(fault::FaultKind::kMachineCrash,
                       [this](const fault::FaultEvent& e) { crash(e); });
    injector_->on_kind(fault::FaultKind::kSlowdown,
                       [this](const fault::FaultEvent& e) { slow_down(e); });
    // Attached before arrivals are scheduled, so at equal timestamps an
    // injection fires before the arrival it could affect.
    injector_->attach(sim_);
  }

  void crash(const fault::FaultEvent& e) {
    const std::size_t mi = e.target % machines_.size();
    if (machines_[mi].down) return;  // overlapping crash, already down
    kill_machine(mi, e.duration);
    sim_.schedule_after(e.duration, [this, mi, e] {
      machines_[mi].down = false;
      injector_->recovered(e, sim_.now());
      request_pass();
    });
    request_pass();
  }

  /// Shared crash body: marks the machine down and kills every task
  /// running on it — its completion is cancelled, its partial work is
  /// lost (busy seconds give back the un-run remainder), and it is
  /// re-queued to run from scratch. Recovery scheduling stays with the
  /// caller (injector path records recovered(), the fabric seam does not).
  void kill_machine(std::size_t mi, double duration) {
    auto& m = machines_[mi];
    m.down = true;
    std::uint64_t crash_seq = 0;
    if (flight_ != nullptr)
      crash_seq = flight_->record(flight_entity_[mi], sim_.now(), "crash",
                                  duration);
    for (auto it = running_.begin(); it != running_.end();) {
      if (it->machine != mi) {
        ++it;
        continue;
      }
      it->completion.cancel();
      result_.machine_busy_seconds[mi] -= it->finish - sim_.now();
      make_eligible(it->ji, it->ti);
      ++result_.tasks_requeued;
      if (flight_ != nullptr)
        flight_->record(flight_entity_[mi], sim_.now(), "requeue",
                        static_cast<double>(jobs_[it->ji].job->id),
                        crash_seq);
      m.free += it->cores;
      it = running_.erase(it);
    }
    observe_busy();
  }

  void slow_down(const fault::FaultEvent& e) {
    const std::size_t mi = e.target % machines_.size();
    auto& m = machines_[mi];
    m.speed = m.base_speed * e.magnitude;
    m.slow_until = std::max(m.slow_until, e.time + e.duration);
    sim_.schedule_after(e.duration, [this, mi, e] {
      auto& machine = machines_[mi];
      // Heal only if no later (overlapping) slowdown extended the window.
      if (sim_.now() + 1e-12 < machine.slow_until) return;
      machine.speed = machine.base_speed;
      injector_->recovered(e, sim_.now());
    });
  }

  void arrive(std::size_t ji) {
    auto& js = jobs_[ji];
    js.arrived = true;
    for (std::size_t ti = 0; ti < js.tasks.size(); ++ti) {
      if (js.tasks[ti].remaining_deps == 0) make_eligible(ji, ti);
    }
    request_pass();
  }

  /// Marks a task eligible now and queues it. On the static-order path
  /// its key is taken here, once; the next pass merges it into the sorted
  /// queue. On the per-pass path its TaskRef is built here, once, into the
  /// mirror every later pass hands to the policy.
  void make_eligible(std::size_t ji, std::size_t ti) {
    auto& ts = jobs_[ji].tasks[ti];
    ts.status = TaskStatus::kEligible;
    ts.eligible_time = sim_.now();
    Queued q;
    q.ji = static_cast<std::uint32_t>(ji);
    q.ti = static_cast<std::uint32_t>(ti);
    if (static_order_)
      policy_.order_key(make_ref(ji, ti), q.key);
    else
      refs_.push_back(make_ref(ji, ti));
    queue_.push_back(q);
  }

  void request_pass() {
    if (pass_pending_) return;
    pass_pending_ = true;
    sim_.schedule_after(0.0, [this] { pass(); });
  }

  std::uint32_t free_cores() const {
    std::uint32_t total = 0;
    for (const auto& m : machines_) total += m.free;
    return total;
  }

  std::uint32_t total_cores() const {
    std::uint32_t total = 0;
    for (const auto& m : machines_) total += m.total;
    return total;
  }

  SchedState make_state(std::size_t queued) const {
    SchedState s;
    s.now = sim_.now();
    s.total_cores = total_cores();
    s.free_cores = free_cores();
    s.running_tasks = running_.size();
    s.queued_tasks = queued;
    s.user_usage = &user_usage_;
    return s;
  }

  TaskRef make_ref(std::size_t ji, std::size_t ti) const {
    const auto& js = jobs_[ji];
    const auto& task = js.job->tasks[ti];
    TaskRef ref;
    ref.job_id = js.job->id;
    ref.task_id = static_cast<std::uint32_t>(ti);
    ref.runtime = task.runtime;
    ref.cores = task.cores;
    ref.submit_time = js.job->submit_time;
    ref.eligible_time = js.tasks[ti].eligible_time;
    ref.user = js.job->user;
    return ref;
  }

  /// Earliest time a machine can host `cores` given current running tasks.
  double compute_shadow(std::uint32_t cores) {
    double shadow = std::numeric_limits<double>::infinity();
    for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
      const auto& m = machines_[mi];
      if (m.down) continue;
      if (m.total < cores) continue;
      if (m.free >= cores) return sim_.now();
      // Running tasks on this machine, by finish time.
      auto& local = shadow_scratch_;
      local.clear();
      for (const auto& r : running_)
        if (r.machine == mi) local.push_back(&r);
      std::sort(local.begin(), local.end(),
                [](const RunningTask* a, const RunningTask* b) {
                  return a->finish < b->finish;
                });
      std::uint32_t available = m.free;
      for (const auto* r : local) {
        available += r->cores;
        if (available >= cores) {
          shadow = std::min(shadow, r->finish);
          break;
        }
      }
    }
    return shadow;
  }

  /// Largest free-core count on any up machine: no wider task fits now.
  std::uint32_t widest_free() const {
    std::uint32_t widest = 0;
    for (const auto& m : machines_)
      if (!m.down) widest = std::max(widest, m.free);
    return widest;
  }

  /// First machine that fits, preferring faster machines then lower ids.
  std::size_t find_fit(std::uint32_t cores) const {
    std::size_t best = machines_.size();
    for (std::size_t mi = 0; mi < machines_.size(); ++mi) {
      if (machines_[mi].down) continue;
      if (machines_[mi].free < cores) continue;
      if (best == machines_.size() ||
          machines_[mi].speed > machines_[best].speed) {
        best = mi;
      }
    }
    return best;
  }

  void pass() {
    pass_pending_ = false;
    if (queue_.empty()) return;
    if (sim_.now() < blocked_until_) {
      sim_.schedule_at(blocked_until_, [this] { request_pass(); });
      return;
    }

    if (obs_ != nullptr) {
      passes_->add(1);
      queue_depth_->set(static_cast<double>(queue_.size()));
      obs_->tracer.begin("sched.pass", "sched", sim_.now());
    }
    if (static_order_) {
      // Merge the tasks that became eligible since the last pass into the
      // sorted queue; the policy is not consulted.
      const auto by_key = [](const Queued& a, const Queued& b) {
        return a.key < b.key;
      };
      const auto tail = queue_.begin() + static_cast<std::ptrdiff_t>(sorted_);
      std::sort(tail, queue_.end(), by_key);
      std::inplace_merge(queue_.begin(), tail, queue_.end(), by_key);
      place_in_order(queue_);
    } else {
      const SchedState state = make_state(refs_.size());
      const double overhead = policy_.tick(state, refs_);
      if (overhead > 0.0) {
        blocked_until_ = sim_.now() + overhead;
        result_.decision_overhead += overhead;
        sim_.schedule_at(blocked_until_, [this] { request_pass(); });
        if (obs_ != nullptr)
          obs_->tracer.end("sched.pass", "sched", sim_.now());
        return;
      }

      ordered_ = refs_;
      policy_.order(ordered_, state);
      order_.clear();
      for (const TaskRef& ref : ordered_) {
        Queued q;
        if (resolve(ref, q)) order_.push_back(q);  // else: a stale ref
      }
      place_in_order(order_);
    }
    if (!placed_at_.empty()) drop_placed();
    sorted_ = queue_.size();
    if (obs_ != nullptr) {
      queue_depth_->set(static_cast<double>(queue_.size()));
      obs_->tracer.end("sched.pass", "sched", sim_.now());
    }
  }

  /// Placed tasks leave the queue, and the mirror in lockstep; the rest
  /// keep their relative order. On the static-order path the placement
  /// loop ran over queue_ itself, so the positions it recorded are the
  /// ones to erase. On the per-pass path they are positions in the
  /// policy's order, so the queue is compacted by task status.
  void drop_placed() {
    if (static_order_) {
      auto out = queue_.begin() + static_cast<std::ptrdiff_t>(placed_at_[0]);
      for (std::size_t k = 0; k < placed_at_.size(); ++k) {
        const std::size_t end = k + 1 < placed_at_.size() ? placed_at_[k + 1]
                                                          : queue_.size();
        out = std::move(
            queue_.begin() + static_cast<std::ptrdiff_t>(placed_at_[k] + 1),
            queue_.begin() + static_cast<std::ptrdiff_t>(end), out);
      }
      queue_.erase(out, queue_.end());
      return;
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Queued& q = queue_[i];
      if (jobs_[q.ji].tasks[q.ti].status != TaskStatus::kEligible) continue;
      refs_[kept] = refs_[i];
      queue_[kept++] = q;
    }
    queue_.resize(kept);
    refs_.resize(kept);
  }

  /// The job and task a policy's TaskRef names, by (job id, task id).
  /// Job ids are usually positions (Workload::normalize and the
  /// portfolio's snapshots number jobs 0..n-1), so the job at index
  /// `job_id` is tried first; ids are distinct, so a match is the job.
  bool resolve(const TaskRef& ref, Queued& q) const {
    std::size_t ji = ref.job_id;
    if (ji >= jobs_.size() || jobs_[ji].job->id != ref.job_id) {
      const auto it = std::lower_bound(
          job_index_.begin(), job_index_.end(),
          std::pair<std::uint64_t, std::size_t>{ref.job_id, 0});
      if (it == job_index_.end() || it->first != ref.job_id) return false;
      ji = it->second;
    }
    if (ref.task_id >= jobs_[ji].tasks.size()) return false;
    q.ji = static_cast<std::uint32_t>(ji);
    q.ti = ref.task_id;
    return true;
  }

  /// The placement loop: places tasks greedily in `order`, skipping those
  /// that do not fit now; with backfilling, the first task that does not
  /// fit reserves its earliest start and later tasks may only run if they
  /// finish before it. Placed tasks are marked running but stay in
  /// `order`, which may be queue_ itself; their positions in it go to
  /// placed_at_, ascending, and pass() drops them afterwards.
  void place_in_order(const std::vector<Queued>& order) {
    const bool backfilling = policy_.backfilling();
    bool constrain = false;
    double shadow = std::numeric_limits<double>::infinity();
    std::uint32_t widest = widest_free();
    placed_at_.clear();
    for (std::size_t i = 0; i < order.size(); ++i) {
      // No machine has a free core: every task needs one (checked on
      // ingest), so nothing further can run, and the reservation the rest
      // of the loop could still compute has no effect.
      if (widest == 0) break;
      const Queued& q = order[i];
      // A policy may list a task twice or name one that is not eligible;
      // such a stale entry neither runs nor takes the reservation.
      if (jobs_[q.ji].tasks[q.ti].status != TaskStatus::kEligible) continue;
      const workflow::Task& task = jobs_[q.ji].job->tasks[q.ti];
      const std::size_t mi =
          task.cores <= widest ? find_fit(task.cores) : machines_.size();
      if (mi == machines_.size()) {
        if (backfilling && !constrain) {
          constrain = true;
          shadow = compute_shadow(task.cores);
        }
        continue;
      }
      const double latency =
          machines_[mi].cluster == 0 ? 0.0 : env_.inter_cluster_latency;
      const double elapsed = latency + task.runtime / machines_[mi].speed;
      if (constrain && sim_.now() + elapsed > shadow) continue;
      place(q.ji, q.ti, mi, elapsed);
      placed_at_.push_back(i);
      widest = widest_free();
    }
  }

  void place(std::size_t ji, std::size_t ti, std::size_t mi, double elapsed) {
    auto& js = jobs_[ji];
    const std::uint32_t cores = js.job->tasks[ti].cores;
    js.tasks[ti].status = TaskStatus::kRunning;
    if (js.start < 0.0) js.start = sim_.now();

    if (obs_ != nullptr) {
      placed_->add(1);
      const double wait = sim_.now() - js.tasks[ti].eligible_time;
      wait_hist_->observe(wait);
      wait_dig_->add(wait);
    }
    machines_[mi].free -= cores;
    observe_busy();
    result_.machine_busy_seconds[mi] += elapsed;

    RunningTask rt;
    rt.finish = sim_.now() + elapsed;
    rt.machine = static_cast<std::uint32_t>(mi);
    rt.cores = cores;
    rt.ji = ji;
    rt.ti = ti;
    if (flight_ != nullptr)
      rt.place_seq = flight_->record(flight_entity_[mi], sim_.now(), "place",
                                     static_cast<double>(js.job->id));
    rt.completion = sim_.schedule_after(
        elapsed, [this, ji, ti, mi, cores, elapsed] {
          complete(ji, ti, mi, cores, elapsed);
        });
    running_.push_back(rt);
  }

  void complete(std::size_t ji, std::size_t ti, std::size_t mi,
                std::uint32_t cores, double elapsed) {
    auto& js = jobs_[ji];
    js.tasks[ti].status = TaskStatus::kDone;
    machines_[mi].free += cores;
    observe_busy();
    ++result_.tasks_completed;

    // Remove this task's running record.
    const auto rit = std::find_if(
        running_.begin(), running_.end(),
        [&](const RunningTask& r) { return r.ji == ji && r.ti == ti; });
    if (rit != running_.end()) {
      if (flight_ != nullptr)
        flight_->record(flight_entity_[mi], sim_.now(), "complete",
                        static_cast<double>(js.job->id), rit->place_seq);
      running_.erase(rit);
    }

    add_usage(js.job->user, elapsed * cores);

    // Unlock dependents.
    for (std::size_t other = 0; other < js.job->tasks.size(); ++other) {
      if (js.tasks[other].status != TaskStatus::kPending) continue;
      const auto& deps = js.job->tasks[other].deps;
      if (std::find(deps.begin(), deps.end(),
                    static_cast<workflow::TaskId>(ti)) == deps.end())
        continue;
      if (--js.tasks[other].remaining_deps == 0 && js.arrived)
        make_eligible(ji, other);
    }

    if (--js.remaining == 0) js.finish = sim_.now();
    request_pass();
  }

  void add_usage(const std::string& user, double work) {
    for (auto& [name, used] : user_usage_) {
      if (name == user) {
        used += work;
        return;
      }
    }
    user_usage_.emplace_back(user, work);
  }

  void observe_busy() {
    std::uint32_t busy = 0;
    for (const auto& m : machines_) busy += m.total - m.free;
    busy_.observe(sim_.now(), static_cast<double>(busy));
  }

  void finalize() {
    double first_submit = std::numeric_limits<double>::infinity();
    std::vector<double> slowdowns;
    std::vector<double> waits;
    for (const auto& js : jobs_) {
      first_submit = std::min(first_submit, js.job->submit_time);
      if (js.finish < 0.0) continue;  // unfinished at time limit
      JobStats stats;
      stats.id = js.job->id;
      stats.submit = js.job->submit_time;
      stats.start = js.start;
      stats.finish = js.finish;
      stats.critical_path = js.job->critical_path();
      result_.makespan = std::max(result_.makespan, js.finish);
      slowdowns.push_back(stats.slowdown());
      waits.push_back(stats.wait());
      result_.jobs.push_back(stats);
    }
    result_.mean_wait = stats::mean(waits);
    result_.mean_slowdown = stats::mean(slowdowns);
    result_.median_slowdown = stats::quantile(slowdowns, 0.5);
    result_.p95_slowdown = stats::quantile(slowdowns, 0.95);
    result_.p999_slowdown = stats::quantile(slowdowns, 0.999);
    for (const double w : waits) result_.wait_digest.add(w);
    for (const double s : slowdowns) result_.slowdown_digest.add(s);
    const double horizon = result_.makespan - (std::isfinite(first_submit)
                                                   ? first_submit
                                                   : 0.0);
    if (horizon > 0.0) {
      result_.utilization = busy_.average(result_.makespan) /
                            static_cast<double>(total_cores());
    }
    if (injector_.has_value()) {
      result_.faults_injected = injector_->injected();
      result_.faults_recovered = injector_->recovered_count();
    }
  }

  const cluster::Environment& env_;
  Policy& policy_;
  SimOptions options_;
  obs::Observability* obs_ = nullptr;
  obs::Counter* passes_ = nullptr;
  obs::Counter* placed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* wait_hist_ = nullptr;
  obs::Digest* wait_dig_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  std::vector<std::size_t> flight_entity_;  // per-machine ring ids

  // Kernel: owned in standalone runs, borrowed from the composition layer
  // in composed runs. owned_ must precede sim_ (init order).
  std::unique_ptr<sim::Simulation> owned_;
  sim::Simulation& sim_;
  bool external_ = false;
  std::vector<MachineState> machines_;
  std::vector<JobState> jobs_;
  /// (job id, index into jobs_), sorted: resolves a policy's TaskRefs.
  std::vector<std::pair<std::uint64_t, std::size_t>> job_index_;
  /// The policy has a static order key (policy.hpp): queue_ is kept
  /// sorted by it and the policy is never asked to order or tick.
  bool static_order_ = false;
  /// Eligible tasks. On the static-order path queue_[0, sorted_) is in key
  /// order and the tail holds tasks that became eligible since the last
  /// pass; otherwise queue_ is in the order tasks became eligible, which
  /// is the order policies see.
  std::vector<Queued> queue_;
  std::size_t sorted_ = 0;
  /// Per-pass path only: refs_[i] is queue_[i]'s TaskRef, built once when
  /// the task became eligible. tick() reads it; order() permutes a copy.
  std::vector<TaskRef> refs_;
  /// Per-pass buffers, reused: the policy's permutation of refs_, and the
  /// tasks it names, resolved for the placement loop.
  std::vector<TaskRef> ordered_;
  std::vector<Queued> order_;
  std::vector<std::size_t> placed_at_;  // place_in_order's placements
  std::vector<const RunningTask*> shadow_scratch_;  // compute_shadow
  std::vector<RunningTask> running_;
  std::vector<std::pair<std::string, double>> user_usage_;
  stats::TimeWeighted busy_;
  bool pass_pending_ = false;
  double blocked_until_ = 0.0;
  std::optional<fault::Injector> injector_;
  SchedResult result_;
};

}  // namespace detail

SchedResult simulate(const cluster::Environment& env,
                     const workflow::Workload& workload, Policy& policy,
                     const SimOptions& options) {
  detail::SchedEngine engine(env, workload, policy, options);
  return engine.run();
}

SchedDriver::SchedDriver(const cluster::Environment& env,
                         const workflow::Workload& workload, Policy& policy,
                         const SimOptions& options, sim::Simulation& sim)
    : engine_(std::make_unique<detail::SchedEngine>(env, workload, policy,
                                                    options, &sim)) {}

SchedDriver::~SchedDriver() = default;

void SchedDriver::prepare() { engine_->prepare(); }
SchedResult SchedDriver::collect() { return engine_->collect(); }

std::size_t SchedDriver::machine_count() const {
  return engine_->machine_count();
}
std::uint32_t SchedDriver::free_cores_on(std::size_t machine) const {
  return engine_->free_cores_on(machine);
}
std::uint32_t SchedDriver::total_cores_on(std::size_t machine) const {
  return engine_->total_cores_on(machine);
}
bool SchedDriver::machine_down(std::size_t machine) const {
  return engine_->machine_is_down(machine);
}
bool SchedDriver::reserve_cores(std::size_t machine, std::uint32_t cores) {
  return engine_->reserve_cores(machine, cores);
}
void SchedDriver::release_cores(std::size_t machine, std::uint32_t cores) {
  engine_->release_cores(machine, cores);
}
void SchedDriver::fail_machine(std::size_t machine, double duration) {
  engine_->fail_machine(machine, duration);
}

}  // namespace atlarge::sched
