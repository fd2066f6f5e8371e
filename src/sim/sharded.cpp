#include "atlarge/sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace atlarge::sim {

namespace {
constexpr Time kInf = std::numeric_limits<Time>::infinity();
}  // namespace

ShardedSimulation::ShardedSimulation(const ShardOptions& options)
    : pool_(std::max<std::size_t>(1, options.threads)),
      lookahead_(std::max(0.0, options.lookahead)) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  lps_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    lps_.push_back(std::make_unique<Lp>());
  lanes_ = std::min(pool_.size(), shards);
  lane_executed_.resize(lanes_, 0);
}

ShardedSimulation::~ShardedSimulation() = default;

void ShardedSimulation::send(std::size_t src, std::size_t dst, Time at,
                             std::uint64_t key, std::function<void()> fn) {
  assert(src < lps_.size() && dst < lps_.size());
  // Always buffered, even outside a run or when src == dst: every
  // delivery then goes through the same sorted barrier path, so the
  // destination's kernel sequence numbers do not depend on *where* the
  // send originated.
  Lp& lp = *lps_[src];
  Message m;
  m.at = at;
  m.key = key;
  m.src = static_cast<std::uint32_t>(src);
  m.dst = static_cast<std::uint32_t>(dst);
  m.seq = lp.next_send_seq++;
  m.fn = std::move(fn);
  lp.outbox.push_back(std::move(m));
}

// Barrier delivery: collect every outbox, impose the global total order
// (at, key, src, seq), and schedule into the destination kernels from the
// coordinator thread (all lanes are quiescent here, so owner-thread
// checks are disarmed). The sort makes the destination's event order a
// pure function of message content, not of lane timing; putting the
// engine's entity `key` before `src` keeps tie-breaks stable when the
// same entities are spread across a different number of shards.
void ShardedSimulation::deliver_mailboxes() {
  delivery_.clear();
  for (auto& lp : lps_) {
    for (auto& m : lp->outbox) delivery_.push_back(std::move(m));
    lp->outbox.clear();
  }
  if (delivery_.empty()) return;
  std::sort(delivery_.begin(), delivery_.end(),
            [](const Message& a, const Message& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.key != b.key) return a.key < b.key;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  messages_ += delivery_.size();
  for (auto& m : delivery_) lps_[m.dst]->sim.schedule_at(m.at, std::move(m.fn));
  delivery_.clear();
}

// One lookahead window: every LP executes its events in [floor, bound]
// in parallel, one lane per (lp mod lanes) with stable worker affinity.
// An LP with nothing in the window still gets its clock advanced to the
// bound (and its sampling boundaries emitted) by run_until's idle path.
std::size_t ShardedSimulation::run_window(Time window_until) {
  ++windows_;
  executing_ = true;
  std::fill(lane_executed_.begin(), lane_executed_.end(), std::size_t{0});
  auto lane_job = [this, window_until](std::size_t lane) {
    std::size_t fired = 0;
    for (std::size_t i = lane; i < lps_.size(); i += lanes_) {
      Simulation& sim = lps_[i]->sim;
      sim.bind_owner_thread();
      fired += sim.run_until(window_until);
      sim.clear_owner_thread();
    }
    lane_executed_[lane] = fired;
  };
  // Lane L runs on worker L-1 every window (run_on pinning); lane 0 is
  // the coordinator itself. wait_idle is the window barrier.
  for (std::size_t lane = 1; lane < lanes_; ++lane)
    pool_.run_on(lane - 1, [&lane_job, lane] { lane_job(lane); });
  lane_job(0);
  pool_.wait_idle();
  executing_ = false;
  std::size_t fired = 0;
  for (const std::size_t n : lane_executed_) fired += n;
  return fired;
}

std::size_t ShardedSimulation::run_until(Time until) {
  std::size_t executed = 0;
  for (;;) {
    deliver_mailboxes();
    Time floor = kInf;
    for (auto& lp : lps_) floor = std::min(floor, lp->sim.next_event_time());
    if (floor == kInf || floor > until) break;
    Time bound;
    if (lookahead_ > 0.0) {
      // Exclusive upper bound: events at exactly floor + L may already
      // depend on messages sent from inside this window.
      bound = std::nextafter(floor + lookahead_, -kInf);
      bound = std::min(bound, until);
    } else {
      bound = floor;  // zero lookahead: one timestamp per window
    }
    executed += run_window(bound);
  }
  if (std::isfinite(until)) {
    // Idle tail, serially: advance every LP clock to the horizon so
    // recorded sampling series span it (mirrors Simulation::run_until).
    for (auto& lp : lps_) lp->sim.run_until(until);
  }
  return executed;
}

std::size_t ShardedSimulation::run() { return run_until(kInf); }

}  // namespace atlarge::sim
