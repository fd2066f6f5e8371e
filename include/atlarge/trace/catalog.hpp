#pragma once
// Scenario catalog: named, campaign-runnable workload scenarios.
//
// Each scenario binds a case-study family from the paper's ecosystem
// studies (social feed fan-out, video-streaming flashcrowd, e-commerce
// spike, gaming/leaderboard diurnal cycle) to one generator spec and one
// replay engine. A scenario is runnable three ways, all from the same
// event stream:
//   * generated in memory (campaign trials, tests),
//   * written to a .atl trace (write_trace) and replayed later from the
//     file with bounded memory (replay over an AtlEventStream),
//   * swept as the `workload.scenario` campaign dimension of the exp
//     adapters.
// Replay summary statistics are deterministic: a scenario replayed from
// the same events yields byte-identical ReplaySummary::text() regardless
// of campaign thread count.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "atlarge/p2p/swarm.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/event.hpp"
#include "atlarge/trace/gen.hpp"
#include "atlarge/workflow/job.hpp"

namespace atlarge::trace::catalog {

/// One named scenario: a generator spec plus the engine it replays on.
struct Scenario {
  std::string name;    // catalog key, e.g. "feed-fanout"
  std::string family;  // the case-study family it models
  std::string engine;  // "serverless" | "p2p" | "sched" | "autoscale" | "eco"
  enum class Shape { kFlashcrowd, kDiurnal };
  Shape shape = Shape::kFlashcrowd;
  gen::FlashcrowdSpec flashcrowd;  // used when shape == kFlashcrowd
  gen::DiurnalSpec diurnal;        // used when shape == kDiurnal
  std::uint64_t default_seed = 1;

  /// Trace horizon in seconds (whichever spec is active).
  double horizon() const noexcept {
    return shape == Shape::kFlashcrowd ? flashcrowd.duration
                                       : diurnal.duration;
  }
};

/// The built-in catalog, in stable order.
const std::vector<Scenario>& scenarios();

/// Lookup by name; nullptr when absent.
const Scenario* find(std::string_view name);

/// Runs the scenario's generator into `sink` (full trace, no cap).
void generate(const Scenario& scenario, std::uint64_t seed,
              const EventSink& sink);

/// Materializes up to `max_events` events (0 = all). Generation is
/// abandoned once the cap is hit, so capped calls stay cheap even for
/// scenarios whose full trace has millions of events.
std::vector<Event> events(const Scenario& scenario, std::uint64_t seed,
                          std::size_t max_events = 0);

/// Generates the scenario into a .atl file; returns events written.
/// Capped like events().
std::uint64_t write_trace(const Scenario& scenario, const std::string& path,
                          std::uint64_t seed, std::size_t max_events = 0,
                          WriterOptions options = {});

// ---------------------------------------------------------------------------
// Engine adapters: the canonical event stream feeding each engine's
// trace-driven arrival seam.

/// kRequest events become serverless invocations: function index =
/// region % functions (regional routing), arrival = event time. Pull-based
/// end to end, so a file-backed stream replays with bounded memory.
class RequestInvocationSource final : public serverless::InvocationSource {
 public:
  RequestInvocationSource(EventStream& events, std::size_t functions);

  bool next(serverless::Invocation& out) override;

 private:
  EventStream* events_;
  std::size_t functions_;
};

/// kSessionStart events become peer arrival times.
class SessionArrivalSource final : public p2p::ArrivalSource {
 public:
  explicit SessionArrivalSource(EventStream& events) : events_(&events) {}

  bool next(double& out) override;

 private:
  EventStream* events_;
};

/// kSessionStart events become one-task jobs for the sched/autoscale
/// engines: submit = event time, task runtime = session duration (the
/// start event's size field, ms) scaled by `runtime_scale` and clamped to
/// [1, 600] s, cores = 1 + entity % 4, user = "region-<region>". The
/// workload is materialized (both engines are O(jobs) anyway);
/// `max_jobs` caps it (0 = all).
workflow::Workload to_workload(EventStream& events, std::size_t max_jobs = 0,
                               double runtime_scale = 0.02);

// ---------------------------------------------------------------------------
// Replay

struct ReplayOptions {
  /// Cap on events pulled from the stream (0 = unlimited) — the CLI
  /// --max-events knob and the CI scenario-smoke cap.
  std::size_t max_events = 0;
  /// Optional metrics registry (not owned, may be null): replay counters
  /// (trace.replay_events / _sessions / _requests) land here, alongside
  /// whatever the trace reader instruments when the stream is file-backed.
  obs::Registry* obs = nullptr;
};

/// Deterministic replay outcome: stream census plus the engine's summary
/// statistics, in a fixed order.
struct ReplaySummary {
  std::string scenario;
  std::string engine;
  std::uint64_t events = 0;    // events consumed from the stream
  std::uint64_t sessions = 0;  // kSessionStart count
  std::uint64_t requests = 0;  // kRequest count
  std::vector<std::pair<std::string, double>> metrics;  // engine summary

  /// Canonical rendering, one "key=value" line per field with doubles in
  /// shortest round-trip form — byte-identical for identical replays,
  /// which is what the determinism acceptance tests compare.
  std::string text() const;
};

/// Replays `events` through the scenario's engine and summarizes.
ReplaySummary replay(const Scenario& scenario, EventStream& events,
                     const ReplayOptions& options = {});

/// Opens `path` as a .atl event trace and replays it (chunked reader, so
/// reader residency stays bounded; reader instruments land in
/// options.obs).
ReplaySummary replay_file(const Scenario& scenario, const std::string& path,
                          const ReplayOptions& options = {});

/// Generates (capped) and replays in one step — the campaign path.
ReplaySummary replay_generated(const Scenario& scenario, std::uint64_t seed,
                               const ReplayOptions& options = {});

}  // namespace atlarge::trace::catalog
