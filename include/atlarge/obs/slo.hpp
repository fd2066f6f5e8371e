#pragma once
// Declarative service-level objectives evaluated continuously in sim time.
//
// An SloSpec names a *bad-event fraction* the system promises to keep
// under budget (objective = promised good fraction; budget = 1 -
// objective) and points at the instruments that define "bad":
//  * kErrorRatio    — two counters: bad events / total events;
//  * kLatencyAbove  — a Digest: observations above `threshold` are bad;
//  * kGaugeAbove    — a gauge: each evaluation where value > `threshold`
//                     contributes one bad observation (time-based budget,
//                     the queue-depth / saturation style of SLO).
//
// The monitor follows the SRE multi-window burn-rate recipe: at every
// sampling boundary it folds the instrument deltas into two sliding
// sim-time windows (a fast window that reacts quickly and a slow window
// that suppresses blips), computes each window's burn rate — the observed
// bad fraction divided by the error budget — and raises an alert on the
// rising edge of "both windows burn above their thresholds". Alert times
// are sampling boundaries, i.e. deterministic sim-time values that are
// byte-identical across runs and host thread counts.
//
// Windows are bucketed rings (kWindowBuckets per window) allocated when
// the spec is added, so steady-state evaluation is allocation-free. Drive
// advance() from the kernel sampling hook (see obs::Observability) or
// manually from non-DES loops.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atlarge/obs/digest.hpp"
#include "atlarge/obs/metrics.hpp"

namespace atlarge::obs {

enum class SloKind {
  kErrorRatio,
  kLatencyAbove,
  kGaugeAbove,
};

/// One sliding evaluation window: bad fraction over the trailing `span`
/// sim-seconds must burn less than `burn_threshold` times the budget.
struct SloWindow {
  double span = 300.0;
  double burn_threshold = 10.0;
};

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::kErrorRatio;
  /// Promised good fraction; the error budget is 1 - objective.
  double objective = 0.99;
  /// kLatencyAbove: latency bound; kGaugeAbove: gauge bound. Unused for
  /// kErrorRatio.
  double threshold = 0.0;
  /// Instruments (not owned, must outlive the monitor); which pair is read
  /// depends on `kind`.
  const Counter* bad = nullptr;    // kErrorRatio
  const Counter* total = nullptr;  // kErrorRatio
  const Digest* digest = nullptr;  // kLatencyAbove
  const Gauge* gauge = nullptr;    // kGaugeAbove
  /// Multi-window gating: an alert needs both windows burning.
  SloWindow fast{300.0, 10.0};
  SloWindow slow{1800.0, 2.0};
};

/// A rising-edge alert: the first evaluation boundary at which both
/// windows of `slo` burned above threshold (after a quiet period).
struct SloAlert {
  double time = 0.0;
  std::size_t slo = 0;
  std::string name;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
};

class SloMonitor {
 public:
  static constexpr std::size_t kWindowBuckets = 16;

  /// Registers a spec (validated: objective in [0,1), instruments matching
  /// the kind, positive window spans — throws std::invalid_argument
  /// otherwise) and returns its index. Add every spec before the run.
  std::size_t add(SloSpec spec);

  std::size_t size() const noexcept { return slos_.size(); }
  const SloSpec& spec(std::size_t i) const { return slos_[i].spec; }

  /// Evaluates every SLO at sim-time boundary `t` (nondecreasing across
  /// calls). Allocation-free except for appending a rising-edge alert.
  void advance(double t);

  /// Whether SLO `i` is currently in the firing state.
  bool firing(std::size_t i) const { return slos_[i].firing; }
  /// Most recent burn rates of SLO `i` (0 before the first evaluation).
  double burn_fast(std::size_t i) const { return slos_[i].windows[0].burn; }
  double burn_slow(std::size_t i) const { return slos_[i].windows[1].burn; }

  /// Rising-edge alerts in evaluation order.
  const std::vector<SloAlert>& alerts() const noexcept { return alerts_; }

  /// {"slos":[{name,kind,objective,firing,burn_fast,burn_slow}...],
  ///  "alerts":[{time,slo,burn_fast,burn_slow}...]}
  std::string json() const;

 private:
  struct Window {
    double span = 0.0;
    double burn_threshold = 0.0;
    double bucket_width = 0.0;
    std::int64_t current = -1;  // absolute bucket index of the newest slot
    std::vector<double> bad;    // kWindowBuckets, allocated in add()
    std::vector<double> total;
    double burn = 0.0;

    void fold(double t, double dbad, double dtotal);
  };

  struct State {
    SloSpec spec;
    Window windows[2];
    // Cumulative (bad, total) as of the previous evaluation.
    double last_bad = 0.0;
    double last_total = 0.0;
    bool firing = false;
  };

  void cumulative(const State& s, double& bad, double& total) const;

  std::vector<State> slos_;
  std::vector<SloAlert> alerts_;
};

}  // namespace atlarge::obs
