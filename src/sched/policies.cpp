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
  std::uint32_t index;
};
constexpr auto kByKey = [](const Slot& a, const Slot& b) {
  return a.key < b.key;
};
constexpr std::uint32_t kDropped = ~std::uint32_t{0};
thread_local std::vector<OrderKey> key_scratch;
thread_local std::vector<Slot> slot_scratch;
thread_local std::vector<Slot> survivor_scratch;
thread_local std::vector<Slot> merge_scratch;
thread_local std::vector<std::uint32_t> where_scratch;
thread_local std::vector<TaskRef> gather_scratch;

/// Splits this call's input into the survivors of the last call, a
/// prefix, and newcomers, the rest, and returns where the newcomers start.
/// Fills `slots` with the survivors in the last call's output order when
/// that order is still sorted under this call's keys; otherwise leaves
/// `slots` empty and returns 0, so that everything is sorted anew.
std::size_t sorted_survivors(
    const std::vector<OrderKey>& keys,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& last_ids,
    const std::vector<std::uint32_t>& last_perm, std::vector<Slot>& slots) {
  // Match this input against the last one: walk both in order, pairing
  // each input task with the next last-input task of the same identity.
  // A task with no such partner ends the walk, so survivors are always a
  // prefix of the input and newcomers its tail, whatever the caller did
  // to the queue. The pairing is a bijection between that prefix and part
  // of the last input, so the survivors' last order below is a
  // permutation of the prefix; whether it is sorted rests on the key
  // check alone, and the match only decides how much is left to sort.
  const std::size_t n = keys.size();
  const std::size_t m = last_ids.size();
  std::vector<std::uint32_t>& where = where_scratch;
  where.assign(m, kDropped);
  std::size_t j = 0;
  std::size_t s = 0;
  for (; s < n; ++s) {
    const std::pair<std::uint64_t, std::uint32_t> id{keys[s].job_id,
                                                     keys[s].task_id};
    while (j < m && last_ids[j] != id) ++j;
    if (j == m) break;
    where[j++] = static_cast<std::uint32_t>(s);
  }
  // The survivors in the last call's output order, checked against this
  // call's keys: FAIR's usage moves between calls and a requeued task
  // comes back with a new eligible_time, so keys stored at the last call
  // would not do.
  slots.clear();
  for (const std::uint32_t last : last_perm) {
    const std::uint32_t i = where[last];
    if (i == kDropped) continue;
    if (!slots.empty() && !(slots.back().key < keys[i])) {
      slots.clear();
      return 0;
    }
    slots.push_back({keys[i], i});
  }
  return s;
}

}  // namespace

void Policy::order_by_key(std::vector<TaskRef>& queue,
                          const std::vector<OrderKey>& keys) {
  const std::size_t n = queue.size();
  const auto record = [&](const std::vector<Slot>* order) {
    last_ids_.resize(n);
    last_perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      last_ids_[i] = {keys[i].job_id, keys[i].task_id};
      last_perm_[i] =
          order != nullptr ? (*order)[i].index : static_cast<std::uint32_t>(i);
    }
  };
  if (std::is_sorted(keys.begin(), keys.end())) {
    record(nullptr);
    return;
  }

  std::vector<Slot>& survivors = survivor_scratch;
  std::vector<Slot>& newcomers = slot_scratch;
  std::vector<Slot>* order = &newcomers;
  const std::size_t first_new =
      sorted_survivors(keys, last_ids_, last_perm_, survivors);
  newcomers.resize(n - first_new);
  for (std::size_t i = first_new; i < n; ++i)
    newcomers[i - first_new] = {keys[i], static_cast<std::uint32_t>(i)};
  std::sort(newcomers.begin(), newcomers.end(), kByKey);
  if (!survivors.empty()) {
    std::vector<Slot>& merged = merge_scratch;
    merged.resize(n);
    std::merge(survivors.begin(), survivors.end(), newcomers.begin(),
               newcomers.end(), merged.begin(), kByKey);
    order = &merged;
  }

  std::vector<TaskRef>& sorted = gather_scratch;
  sorted.resize(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = queue[(*order)[i].index];
  queue.swap(sorted);
  record(order);
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
