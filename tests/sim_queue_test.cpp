// Property tests for the kernel's event queue and the batched dispatch
// path. The contract under test: the 4-ary heap pops the exact total-order
// minimum of the packed (time, seq) records, so on any schedule — ties at
// equal timestamps, cancelled tombstones, nested scheduling, sparse
// far-future times and grow/shrink churn included — the kernel fires
// events in the same order as a brute-force reference that keeps every
// pending event in a std::map keyed by (time, seq). Alongside it, the
// allocation-accounting contract: a reserve()-sized run touches the
// system allocator exactly zero times, observable both through
// Simulation::alloc_events() and the Observer::on_alloc_event mirror.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "atlarge/sim/simulation.hpp"
#include "atlarge/stats/rng.hpp"

namespace {

using atlarge::sim::EventHandle;
using atlarge::sim::Simulation;

std::string exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The ordering oracle: every pending event sits in a std::map keyed by
/// (time, seq), with a cancel flag, and run() fires map entries front to
/// back. No batching, no heap, no packed records — only the documented
/// order (earliest time first, ties in scheduling order) and the clamp of
/// past times to now().
class ReferenceQueue {
 public:
  using Key = std::pair<double, std::uint64_t>;
  struct Entry {
    std::function<void()> action;
    bool cancelled = false;
  };

  class Handle {
   public:
    Handle() = default;
    bool cancel() {
      if (queue_ == nullptr) return false;
      const auto it = queue_->events_.find(key_);
      if (it == queue_->events_.end() || it->second.cancelled) return false;
      it->second.cancelled = true;
      return true;
    }

   private:
    friend class ReferenceQueue;
    Handle(ReferenceQueue* queue, Key key) : queue_(queue), key_(key) {}
    ReferenceQueue* queue_ = nullptr;
    Key key_{};
  };

  double now() const { return now_; }

  template <class F>
  Handle schedule_at(double at, F&& action) {
    const Key key{std::max(at, now_), next_seq_++};
    events_.emplace(key, Entry{std::forward<F>(action)});
    return Handle(this, key);
  }

  template <class F>
  Handle schedule_after(double delay, F&& action) {
    return schedule_at(now_ + std::max(delay, 0.0), std::forward<F>(action));
  }

  std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const auto& kv) { return !kv.second.cancelled; }));
  }

  std::size_t run() {
    std::size_t executed = 0;
    while (!events_.empty()) {
      auto node = events_.extract(events_.begin());
      if (node.mapped().cancelled) continue;
      now_ = node.key().first;
      node.mapped().action();
      ++executed;
    }
    return executed;
  }

 private:
  std::map<Key, Entry> events_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

template <class Sim>
struct HandleOf {
  using type = EventHandle;
};
template <>
struct HandleOf<ReferenceQueue> {
  using type = ReferenceQueue::Handle;
};

/// One randomized schedule, fully determined by (seed, n): an initial wave
/// with heavy timestamp ties, a slice of immediate cancellations, a slice
/// of in-run cancellations (tombstones reclaimed while the queue drains),
/// and nested scheduling — some actions spawn a child at the current
/// timestamp, some in the near future. Returns the exact firing log.
template <class Sim>
std::string run_script(std::uint64_t seed, std::size_t n) {
  Sim sim;
  atlarge::stats::Rng rng(seed);
  std::string log;
  std::vector<typename HandleOf<Sim>::type> handles;
  handles.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    // Ten distinct timestamps across the wave: every batch is large.
    const double t = 0.5 * static_cast<double>(rng.uniform_int(0, 9));
    const double child_gap = rng.uniform() < 0.5 ? 0.0 : 0.25;
    const bool spawn_child = rng.uniform() < 0.3;
    handles.push_back(sim.schedule_at(t, [&log, &sim, i, spawn_child,
                                          child_gap] {
      log += std::to_string(i) + "@" + exact(sim.now()) + ";";
      if (spawn_child) {
        sim.schedule_after(child_gap, [&log, &sim, i] {
          log += "c" + std::to_string(i) + "@" + exact(sim.now()) + ";";
        });
      }
    }));
  }
  // Immediate cancellations: tombstones that sit in the queue from the
  // start.
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.15) handles[i].cancel();
  }
  // In-run cancellations: a canceller at t=0.75 (between the tied
  // timestamps) kills a random slice of still-pending events mid-drain.
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 0.2) victims.push_back(i);
  }
  sim.schedule_at(0.75, [&handles, &victims, &log] {
    for (const std::size_t i : victims) {
      if (handles[i].cancel()) log += "x" + std::to_string(i) + ";";
    }
  });
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  return log;
}

/// Times spanning twelve orders of magnitude: most of the queue sits far
/// in the future of the event being fired.
template <class Sim>
std::string sparse_far_future_script(std::uint64_t seed) {
  Sim sim;
  atlarge::stats::Rng rng(seed);
  std::string log;
  for (std::size_t i = 0; i < 300; ++i) {
    const double magnitude = static_cast<double>(rng.uniform_int(0, 12));
    const double t = rng.uniform() * std::pow(10.0, magnitude);
    sim.schedule_at(t, [&log, &sim, i] {
      log += std::to_string(i) + "@" + exact(sim.now()) + ";";
    });
  }
  sim.run();
  return log;
}

/// Alternating large waves and near-empty drains: the queue grows to
/// thousands of records, empties, and grows again.
template <class Sim>
std::string grow_shrink_script() {
  Sim sim;
  atlarge::stats::Rng rng(99);
  std::string log;
  double base = 0.0;
  for (int wave = 0; wave < 4; ++wave) {
    const std::size_t count = wave % 2 == 0 ? 2000 : 30;
    for (std::size_t i = 0; i < count; ++i) {
      const double t = base + rng.uniform() * 50.0;
      sim.schedule_at(t, [&log, &sim, i] {
        log += std::to_string(i) + "@" + exact(sim.now()) + ";";
      });
    }
    sim.run();
    base += 100.0;
  }
  return log;
}

TEST(SimQueueProperty, RandomScheduleMatchesReferenceOrdering) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t n : {17u, 200u, 1500u}) {
      const std::string heap_log = run_script<Simulation>(seed, n);
      const std::string ref_log = run_script<ReferenceQueue>(seed, n);
      ASSERT_EQ(heap_log, ref_log)
          << "kernel diverged from the reference at seed=" << seed
          << " n=" << n;
      ASSERT_FALSE(heap_log.empty());
    }
  }
}

TEST(SimQueueProperty, TiesFireInScheduleOrder) {
  Simulation sim;
  std::string log;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(5.0, [&log, i] { log += std::to_string(i) + ";"; });
  }
  sim.run();
  std::string want;
  for (int i = 0; i < 100; ++i) want += std::to_string(i) + ";";
  EXPECT_EQ(log, want);
}

TEST(SimQueueProperty, SparseFarFutureSchedulesMatch) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(sparse_far_future_script<Simulation>(seed),
              sparse_far_future_script<ReferenceQueue>(seed))
        << "seed=" << seed;
  }
}

TEST(SimQueueProperty, GrowShrinkChurnMatchesReference) {
  EXPECT_EQ(grow_shrink_script<Simulation>(),
            grow_shrink_script<ReferenceQueue>());
}

// ------------------------------------------------ batched dispatch edges --

TEST(SimQueueBatch, StopMidBatchPreservesRemainderAndOrder) {
  Simulation sim;
  std::string log;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(1.0, [&log, &sim, i] {
      log += std::to_string(i) + ";";
      if (i == 2) sim.stop();
    });
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, "0;1;2;");
  EXPECT_EQ(sim.pending(), 3u);
  // Resuming drains the rest of the interrupted batch in the original
  // order at the same timestamp.
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, "0;1;2;3;4;5;");
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(SimQueueBatch, CancelInsideBatchPreventsLaterEqualTimeFire) {
  Simulation sim;
  std::string log;
  EventHandle last;
  sim.schedule_at(1.0, [&log, &last] {
    log += "a;";
    EXPECT_TRUE(last.cancel());
  });
  sim.schedule_at(1.0, [&log] { log += "b;"; });
  last = sim.schedule_at(1.0, [&log] { log += "victim;"; });
  sim.run();
  EXPECT_EQ(log, "a;b;");
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimQueueBatch, SameTimeChildFiresAtSameTimestampAfterBatch) {
  Simulation sim;
  std::string log;
  sim.schedule_at(2.0, [&log, &sim] {
    log += "parent;";
    sim.schedule_at(2.0, [&log, &sim] {
      log += "child@" + exact(sim.now()) + ";";
    });
  });
  sim.schedule_at(2.0, [&log] { log += "sibling;"; });
  sim.run();
  // The child carries a larger sequence number: it fires after every
  // event of the original batch, still at t=2.
  EXPECT_EQ(log, "parent;sibling;child@2;");
}

// --------------------------------------------------- allocation tracking --

/// Self-rescheduling ticker: the steady-state shape domain simulators
/// settle into (constant pending population, constant churn).
struct Ticker {
  Simulation* sim;
  std::uint64_t* remaining;
  double period;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim->schedule_after(period, *this);
  }
};

TEST(SimQueueAlloc, ReservedHeapSteadyStateIsAllocationFree) {
  // Zero-alloc from the first event: reserve() pre-sizes every structure
  // the run can touch.
  Simulation sim;
  sim.reserve(512);
  std::uint64_t remaining = 5000;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(0.01 * static_cast<double>(i),
                    Ticker{&sim, &remaining, 1.0 + 0.001 * i});
  }
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.alloc_events(), 0u)
      << "a pre-sized steady-state heap run touched the system allocator";
}

TEST(SimQueueAlloc, ObserverMirrorsAllocEvents) {
  struct CountingObserver final : atlarge::sim::Observer {
    std::uint64_t allocs = 0;
    void on_alloc_event() override { ++allocs; }
  };
  Simulation sim;
  CountingObserver obs;
  sim.set_observer(&obs);
  // No reserve: growth must be visible through both channels, in sync.
  for (int i = 0; i < 2000; ++i) {
    sim.schedule_at(static_cast<double>(i % 50), [] {});
  }
  sim.run();
  EXPECT_GT(sim.alloc_events(), 0u);
  EXPECT_EQ(sim.alloc_events(), obs.allocs);
}

TEST(SimQueueAlloc, OversizePayloadsAllocateOnlyWhenUnreserved) {
  // A payload above the inline block takes an arena size-class block;
  // reserve()'s payload_bytes argument pre-funds those chunks too.
  struct Big {
    double data[20];  // 160 bytes: size class 256
  };
  Simulation sim;
  sim.reserve(64, 64 * sizeof(Big) * 2);
  for (int i = 0; i < 32; ++i) {
    Big big{};
    big.data[0] = static_cast<double>(i);
    sim.schedule_at(1.0, [big] {
      volatile double sink = big.data[0];
      (void)sink;
    });
  }
  sim.run();
  EXPECT_EQ(sim.alloc_events(), 0u);
}

}  // namespace
