#include "atlarge/sched/policies.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace atlarge::sched {

namespace {

/// Per-thread scratch for the per-pass sort, reused across passes so that
/// ordering allocates nothing in the steady state. Policies run on one
/// thread at a time (the portfolio clones them for parallel what-ifs), and
/// nothing here re-enters itself, so one set per thread is enough.
struct Slot {
  OrderKey key;
  std::size_t index;
};
thread_local std::vector<OrderKey> key_scratch;
thread_local std::vector<Slot> slot_scratch;
thread_local std::vector<TaskRef> gather_scratch;

}  // namespace

void order_by_key(std::vector<TaskRef>& queue,
                  const std::vector<OrderKey>& keys) {
  if (std::is_sorted(keys.begin(), keys.end())) return;
  std::vector<Slot>& slots = slot_scratch;
  slots.resize(queue.size());
  for (std::size_t i = 0; i < queue.size(); ++i) slots[i] = {keys[i], i};
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.key < b.key; });
  std::vector<TaskRef>& sorted = gather_scratch;
  sorted.resize(queue.size());
  for (std::size_t i = 0; i < slots.size(); ++i)
    sorted[i] = queue[slots[i].index];
  queue.swap(sorted);
}

void Policy::order(std::vector<TaskRef>& queue, const SchedState&) {
  std::vector<OrderKey>& keys = key_scratch;
  keys.resize(queue.size());
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (!order_key(queue[i], keys[i]))
      throw std::logic_error(name() + ": policy has neither order() nor "
                                      "order_key()");
  }
  order_by_key(queue, keys);
}

bool Policy::order_key(const TaskRef&, OrderKey&) const { return false; }

double Policy::tick(const SchedState&, const std::vector<TaskRef>&) {
  return 0.0;
}

bool FcfsPolicy::order_key(const TaskRef& t, OrderKey& k) const {
  k = {t.submit_time, t.eligible_time, t.job_id, t.task_id};
  return true;
}

std::unique_ptr<Policy> FcfsPolicy::clone() const {
  return std::make_unique<FcfsPolicy>();
}

bool EasyBackfillingPolicy::order_key(const TaskRef& t, OrderKey& k) const {
  return FcfsPolicy{}.order_key(t, k);
}

std::unique_ptr<Policy> EasyBackfillingPolicy::clone() const {
  return std::make_unique<EasyBackfillingPolicy>();
}

bool SjfPolicy::order_key(const TaskRef& t, OrderKey& k) const {
  k = {t.runtime, 0.0, t.job_id, t.task_id};
  return true;
}

std::unique_ptr<Policy> SjfPolicy::clone() const {
  return std::make_unique<SjfPolicy>();
}

bool LjfPolicy::order_key(const TaskRef& t, OrderKey& k) const {
  k = {-t.runtime, 0.0, t.job_id, t.task_id};
  return true;
}

std::unique_ptr<Policy> LjfPolicy::clone() const {
  return std::make_unique<LjfPolicy>();
}

bool WideFirstPolicy::order_key(const TaskRef& t, OrderKey& k) const {
  k = {-static_cast<double>(t.cores), -t.runtime, t.job_id, t.task_id};
  return true;
}

std::unique_ptr<Policy> WideFirstPolicy::clone() const {
  return std::make_unique<WideFirstPolicy>();
}

void RandomPolicy::order(std::vector<TaskRef>& q, const SchedState&) {
  // Fisher-Yates with our own RNG (std::shuffle's result is
  // implementation-defined; this keeps runs bit-reproducible).
  for (std::size_t i = q.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(q[i - 1], q[j]);
  }
}

std::unique_ptr<Policy> RandomPolicy::clone() const {
  return std::make_unique<RandomPolicy>(seed_);
}

void FairSharePolicy::order(std::vector<TaskRef>& q, const SchedState& s) {
  const auto usage_of = [&](std::string_view user) {
    if (s.user_usage == nullptr) return 0.0;
    for (const auto& [name, used] : *s.user_usage)
      if (name == user) return used;
    return 0.0;
  };
  std::vector<OrderKey>& keys = key_scratch;
  keys.resize(q.size());
  for (std::size_t i = 0; i < q.size(); ++i)
    keys[i] = {usage_of(q[i].user), q[i].submit_time, q[i].job_id,
               q[i].task_id};
  order_by_key(q, keys);
}

std::unique_ptr<Policy> FairSharePolicy::clone() const {
  return std::make_unique<FairSharePolicy>();
}

std::vector<std::unique_ptr<Policy>> standard_policies(
    std::uint64_t random_seed) {
  std::vector<std::unique_ptr<Policy>> zoo;
  zoo.push_back(std::make_unique<FcfsPolicy>());
  zoo.push_back(std::make_unique<EasyBackfillingPolicy>());
  zoo.push_back(std::make_unique<SjfPolicy>());
  zoo.push_back(std::make_unique<LjfPolicy>());
  zoo.push_back(std::make_unique<WideFirstPolicy>());
  zoo.push_back(std::make_unique<RandomPolicy>(random_seed));
  zoo.push_back(std::make_unique<FairSharePolicy>());
  return zoo;
}

}  // namespace atlarge::sched
