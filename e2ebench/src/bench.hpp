#pragma once
// Shared plumbing of the end-to-end benchmark binary: run options, the raw
// record a workload fills in, output digests, and wall-clock spans that the
// benchmark records around its calls into the library's layers.
//
// The binary prints the raw record as one JSON object; run.py turns it into
// the reported metrics (medians, tail percentiles, golden-digest checks).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Worker threads of the parallel layers: the CPUs this process may run
  /// on.
  std::size_t threads = 1;
  /// Directory for the files a run writes: .atl traces, result stores and
  /// the Chrome trace.
  std::string out_dir = ".";
};

/// An input seed for stream `stream` of workload seed `seed`, so that every
/// generated input changes with the workload seed independently.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a 64 over bytes. Doubles are hashed by their bit patterns, so two
/// digests agree only for bitwise-identical outputs.
class Digest {
 public:
  Digest& bytes(const void* data, std::size_t size);
  Digest& text(std::string_view s) { return bytes(s.data(), s.size()); }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v) { return bytes(&v, sizeof v); }
  template <class T>
  Digest& all(const std::vector<T>& v) {
    u64(v.size());
    return bytes(v.data(), v.size() * sizeof(T));
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Tally of the operations a run attempted. An operation is one simulation
/// run, kernel job, trial, aggregate or replay. It fails when it throws,
/// when a check against another configuration fails, or when its digest
/// differs from the digest of its first attempt in this run. run.py also
/// fails it when its digest differs from the committed golden digest.
class Ops {
 public:
  void record(const std::string& name, bool ok, const std::string& digest = {});
  /// Adds `count` successful attempts of `name`, no digest.
  void add(const std::string& name, std::uint64_t count);
  std::string json() const;

 private:
  struct Op {
    std::uint64_t count = 0;
    std::uint64_t failed = 0;
    std::string digest;
  };
  std::map<std::string, Op> ops_;
};

/// Latency samples of each kind every timed phase collects at least.
inline constexpr std::size_t kMinSamples = 20;

/// Everything one run measures, unprocessed.
struct Record {
  Ops ops;
  /// Host time of each decision (portfolio: a selection round; workloads
  /// without rounds: one operation) and of each operation (portfolio: one
  /// simulation run), in ms.
  std::vector<double> decision_ms;
  std::vector<double> op_ms;
  /// Samples one timed pass yields; every pass of a run yields as many.
  /// run.py splits the samples into passes by it for the per-pass mean, and
  /// picks the tail percentile for max(kMinSamples, min_passes x this)
  /// samples, the count every run is guaranteed, so the percentile does
  /// not drift with run length.
  std::size_t decision_per_pass = 0;
  std::size_t op_per_pass = 0;
  /// End-to-end rates, one value per timed pass.
  std::map<std::string, std::vector<double>> series;
  /// Per-layer values, one per traced pass (or one per run).
  std::map<std::string, std::vector<double>> layers;
  std::uint64_t events = 0;  // domain events over the whole run

  void rate(const std::string& name, double v) { series[name].push_back(v); }
  void layer(const std::string& name, double v) { layers[name].push_back(v); }
};

/// Moves the calling thread to the next CPU of the process's CPU set,
/// round robin. A single-threaded workload calls it between units of work
/// so that every pass runs on every CPU: on a shared host the CPUs differ
/// in speed, and which is slow shifts by the minute, so a thread left on
/// one CPU reads that CPU's speed of the moment. A new thread inherits
/// its creator's affinity, so call any_cpu() before starting threads.
void next_cpu();
/// Lets the calling thread run on every CPU of the process's set again.
void any_cpu();

/// One benchmark workload. main() times setup() (repeated, median),
/// runs reference() once, then timed passes until the run's seconds are
/// spent; a traced run adds as many traced passes, each followed by a
/// traced reference(), and calls finish().
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs; must leave the workload ready to run passes.
  virtual void setup() = 0;
  /// The runs the checks compare against (shard layout 1/1, one kernel
  /// thread), outside the timed passes. The first call keeps their outputs;
  /// traced calls check them against it and time them under the same
  /// tracing state as the traced passes, for the speedup metrics.
  virtual void reference(Record&, bool /*traced*/) {}
  /// One pass over the whole workload. Traced passes attach the library's
  /// obs planes and record per-layer values.
  virtual void pass(Record& record, bool traced) = 0;
  /// Per-layer values that need all traced passes (speedups, set-up
  /// splits); traced runs only.
  virtual void finish(Record&) {}
  virtual std::size_t min_passes() const { return 1; }
};

std::unique_ptr<Workload> make_portfolio(const Options& options);
std::unique_ptr<Workload> make_ecosystem(const Options& options);
std::unique_ptr<Workload> make_graph(const Options& options);
std::unique_ptr<Workload> make_campaign(const Options& options);

// ---------------------------------------------------------------- spans --

/// Turns span recording on or off (off by default; untraced passes pay
/// one branch per Scope).
void enable_spans(bool on);

/// A wall-clock span around one call into a library layer. Spans nest per
/// thread; a span opened on a worker thread names its parent explicitly.
class Scope {
 public:
  Scope(const char* name, const char* layer, std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// 0 when spans are off.
  std::uint64_t id() const noexcept { return id_; }
  /// Forgets the span (for calls that turn out not to be the event of
  /// interest, such as a tick() that ran no selection round).
  void drop() noexcept { dropped_ = true; }

 private:
  const char* name_;
  const char* layer_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
  bool dropped_ = false;
};

/// Seconds each layer spent in its spans minus the part covered by child
/// spans, summed over every recorded span.
std::map<std::string, double> layer_self_seconds();

/// Writes every recorded span as Chrome trace JSON; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace e2e
