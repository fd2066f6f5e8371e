#pragma once
// Scheduling-policy interface.
//
// The cluster simulator (simulator.hpp) maintains a queue of *eligible*
// tasks (arrived, all dependencies finished). A policy's single job is to
// order that queue; the simulator then places tasks greedily in queue
// order, optionally with EASY-style backfilling when the policy opts in.
// This separation lets the portfolio scheduler (portfolio.hpp) treat every
// policy — including nested copies of itself — uniformly, which is exactly
// the property Section 6.6 of the paper needs: "simulate all the
// alternatives" online.
//
// Static-order contract. A policy whose order is a fixed function of each
// task (FCFS, SJF, ...) says so by implementing order_key(). The simulator
// then keeps its eligible queue sorted by that key as tasks become
// eligible, and on every scheduling pass calls neither order() nor tick():
// the key replaces the per-pass sort, and such a policy's tick() must be
// the free default. A policy whose order depends on state that changes
// while tasks wait (an RNG, per-user usage, a delegate chosen at run time)
// returns false from order_key() and orders the queue in order() on every
// pass instead.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace atlarge::sched {

/// A queued, eligible task as seen by a policy. Trivially copyable, so
/// the simulator can hand policies a fresh copy of its queue on every pass
/// at the cost of a memcpy.
struct TaskRef {
  std::uint64_t job_id = 0;
  std::uint32_t task_id = 0;
  std::uint32_t cores = 1;
  double runtime = 0.0;       // reference-core runtime
  double submit_time = 0.0;   // job submit time
  double eligible_time = 0.0; // when dependencies completed
  /// A view of the job's user name, not a copy. The simulator points it
  /// at the workload's workflow::Job::user, which outlives every policy
  /// call of the run; whoever builds a TaskRef by hand must likewise keep
  /// the viewed string alive for as long as the ref is used (never assign
  /// it from a temporary std::string).
  std::string_view user;
};
static_assert(std::is_trivially_copyable_v<TaskRef>);

/// A task's static sort key: tasks are placed in increasing key order.
/// Keys compare by `major`, then `minor`, then the (job_id, task_id)
/// identity, so every key order is total and simulation stays
/// deterministic. Descending orders negate their fields.
struct OrderKey {
  double major = 0.0;
  double minor = 0.0;
  std::uint64_t job_id = 0;
  std::uint32_t task_id = 0;

  friend bool operator<(const OrderKey& a, const OrderKey& b) noexcept {
    if (a.major != b.major) return a.major < b.major;
    if (a.minor != b.minor) return a.minor < b.minor;
    if (a.job_id != b.job_id) return a.job_id < b.job_id;
    return a.task_id < b.task_id;
  }
};

/// Cluster state snapshot offered to policies at decision time.
struct SchedState {
  double now = 0.0;
  std::uint32_t total_cores = 0;
  std::uint32_t free_cores = 0;
  std::size_t running_tasks = 0;
  std::size_t queued_tasks = 0;
  /// Work (core-seconds) completed per user so far; used by fair-share.
  const std::vector<std::pair<std::string, double>>* user_usage = nullptr;
};

/// Base class for scheduling policies. Implementations must be
/// deterministic given their constructor arguments (randomized policies
/// take a seed).
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Orders the eligible queue in-place; the simulator places tasks from
  /// the front. Should be a permutation; the simulator skips every ref
  /// that does not name a still-eligible task, so stale refs and repeats
  /// neither run nor take a backfilling reservation. The default sorts by
  /// order_key() and throws std::logic_error for a policy without one.
  /// order() may update per-instance state (order_by_key() remembers its
  /// last call), so one instance must not be ordered from two threads at
  /// once; give each thread its own clone().
  virtual void order(std::vector<TaskRef>& queue, const SchedState& state);

  /// The task's static sort key (see the contract above). Returns false,
  /// the default, when the policy has no key; a policy must answer the
  /// same for every task.
  virtual bool order_key(const TaskRef& task, OrderKey& key) const;

  /// When true, the simulator applies EASY backfilling: the head task
  /// reserves its earliest feasible start, and later tasks may jump the
  /// queue only if they do not delay that reservation.
  virtual bool backfilling() const { return false; }

  /// Called on every scheduling event before placement, for policies
  /// without an order_key(). Returns a decision overhead in seconds; the
  /// simulator delays placement by that amount. Default: zero (instant
  /// decisions). The portfolio scheduler uses this hook to run (and charge
  /// for) its nested simulations.
  virtual double tick(const SchedState& state,
                      const std::vector<TaskRef>& queue);

  /// Fresh instance with identical configuration, for nested simulation.
  virtual std::unique_ptr<Policy> clone() const = 0;

 protected:
  /// Reorders `queue` by increasing key, where keys[i] is the key of
  /// queue[i], and remembers the call in this instance. Keys that are
  /// already in order leave `queue` untouched (no sort, no gather): a
  /// queue that became eligible in key order costs one scan. Otherwise,
  /// when the input is the last call's input with some tasks dropped and
  /// newcomers appended, only the newcomers are sorted and merged into the
  /// survivors' last order; any other input costs a full sort. The result
  /// is the same either way: keys order totally, so there is one sorted
  /// order.
  void order_by_key(std::vector<TaskRef>& queue,
                    const std::vector<OrderKey>& keys);

 private:
  /// order_by_key()'s last call: its input's (job_id, task_id) in input
  /// order, and the permutation it returned (last_perm_[k] is the input
  /// position of output k). Empty before the first call; a clone starts
  /// empty.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> last_ids_;
  std::vector<std::uint32_t> last_perm_;
};

}  // namespace atlarge::sched
