#pragma once
// Causal flight recorder: a bounded black box per entity.
//
// Domains register entities (machines, functions, peers) and record short
// event tuples against them — what happened, when, with what detail, and
// *because of which earlier record* (a global sequence number chains
// causality across entities: a machine-crash record is the cause of every
// task-requeue record it produced). Each entity keeps only its last N
// records in a preallocated ring, so recording is O(1) and allocation-free
// in steady state, cheap enough to leave on for entire runs.
//
// When something goes wrong — in practice, when an SloMonitor fires (see
// Observability::set_alert_dump_path) — chrome_json() dumps the retained
// history as a Chrome trace-event file: one thread lane per entity,
// instant events carrying {seq, cause, detail} args, loadable in Perfetto
// / about://tracing next to the Tracer's span exports. The dump is a pure
// function of recorded sim-time history, so it is byte-identical across
// runs and host thread counts.
//
// Event names follow the Tracer discipline: string literals only (the
// recorder stores the pointer, not a copy).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace atlarge::obs {

class FlightRecorder {
 public:
  /// `per_entity` bounds retained records per entity ring.
  explicit FlightRecorder(std::size_t per_entity = 64)
      : per_entity_(per_entity == 0 ? 1 : per_entity) {}

  /// Registers (or looks up) an entity lane by name; returns its id.
  /// Allocates — call during setup, not on the hot path.
  std::size_t entity(const std::string& name);

  std::size_t entities() const noexcept { return rings_.size(); }

  /// Records an event against `entity` at sim-time `t`. `event` must be a
  /// string literal. `cause` is the seq() of the causally preceding record
  /// (0 = spontaneous). Returns this record's sequence number, to be used
  /// as the `cause` of downstream records.
  std::uint64_t record(std::size_t entity, double t, const char* event,
                       double detail = 0.0, std::uint64_t cause = 0);

  /// Sequence number of the most recent record on `entity` (0 if none) —
  /// convenient causal anchor when the producer did not keep the seq.
  std::uint64_t last_seq(std::size_t entity) const {
    return rings_[entity].last_seq;
  }

  std::uint64_t recorded() const noexcept { return next_seq_ - 1; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON: thread_name metadata per entity, one instant
  /// event per retained record with args {seq, cause, detail}.
  std::string chrome_json() const;
  /// Write chrome_json() to `path`; throws std::runtime_error on failure.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    double time = 0.0;
    const char* event = nullptr;
    double detail = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
  };

  struct Ring {
    std::string name;
    std::vector<Record> records;  // capacity per_entity_, filled lazily
    std::size_t head = 0;
    std::size_t size = 0;
    std::uint64_t last_seq = 0;
  };

  std::size_t per_entity_;
  std::vector<Ring> rings_;
  std::map<std::string, std::size_t> index_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace atlarge::obs
