#pragma once
// Injector: bridges a FaultPlan onto a sim::Simulation by scheduling each
// injection as an ordinary kernel event — totally ordered against domain
// events, deterministic, and visible to the attached Observer like any
// other event. The kernel itself never interprets faults.
//
// Usage (domain engines):
//   fault::Injector injector(plan, obs);
//   injector.on_kind(fault::FaultKind::kMachineCrash,
//                    [&](const fault::FaultEvent& e) { crash(e); });
//   injector.attach(sim);   // schedules one event per plan entry
//
// The injector mirrors every handled injection into the obs plane:
// `fault.injected` (plus a per-kind `fault.injected.<kind>` counter) and a
// "fault.<kind>" instant in the "fault" span category. Domains report
// healing through recovered(), which bumps `fault.recovered` and emits a
// matching instant — so an exported trace shows inject/recover pairs on
// the same timeline as kernel and domain spans. Events whose kind has no
// registered handler are counted under `fault.ignored` and otherwise
// skipped, which lets one plan drive several engines that each consume
// only the kinds they understand.

#include <array>
#include <cstdint>
#include <functional>

#include "atlarge/fault/fault.hpp"
#include "atlarge/sim/simulation.hpp"

namespace atlarge::obs {
class Observability;
}

namespace atlarge::fault {

class Injector {
 public:
  using Handler = std::function<void(const FaultEvent&)>;

  /// Neither the plan nor the obs plane is owned; both must outlive the
  /// injector (and the Simulation it is attached to).
  explicit Injector(const FaultPlan& plan,
                    obs::Observability* obs = nullptr);

  /// Registers the handler for `kind` (replacing any previous one).
  /// Register handlers *before* attach().
  void on_kind(FaultKind kind, Handler handler);

  /// Schedules one kernel event per plan entry on `sim`. Call once, before
  /// the domain schedules its own events, so that at equal timestamps an
  /// injection fires first. `sim` must outlive the scheduled events.
  void attach(sim::Simulation& sim);

  /// Domains call this when a fault heals (machine restarted, invocation
  /// succeeded after faulted attempts): bumps `fault.recovered` and emits
  /// a "fault.<kind>" recovery instant at simulated time `now`.
  void recovered(const FaultEvent& event, double now);

  std::size_t injected() const noexcept { return injected_; }
  std::size_t recovered_count() const noexcept { return recovered_; }
  std::size_t ignored() const noexcept { return ignored_; }

 private:
  void fire(const FaultEvent& event, double now);

  const FaultPlan* plan_;
  obs::Observability* obs_;
  std::array<Handler, kFaultKindCount> handlers_{};
  std::size_t injected_ = 0;
  std::size_t recovered_ = 0;
  std::size_t ignored_ = 0;
};

}  // namespace atlarge::fault
