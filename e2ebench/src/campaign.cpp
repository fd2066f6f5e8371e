// Workload `campaign`: two grid campaigns through exp::TrialRunner at
// threads = nproc into a fresh, file-backed ResultStore (serverless and p2p
// adapters, each with workload.scenario over both of its options), then
// both re-run fully memoized from the reopened store and aggregated. One
// catalog scenario is also written to .atl and replayed from the file. The
// exp and trace layers are used both ways: fresh trials and TraceWriter
// write, memo hits and TraceReader read. Parallelism is one trial per task.

#include <cmath>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "atlarge/exp/adapter.hpp"
#include "atlarge/exp/aggregate.hpp"
#include "atlarge/exp/campaign.hpp"
#include "atlarge/exp/runner.hpp"
#include "atlarge/exp/store.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/trace/atl.hpp"
#include "atlarge/trace/catalog.hpp"
#include "bench.hpp"

namespace e2e {
namespace {

using namespace atlarge;

/// Forwarding adapter that times every SimulatorAdapter::run call. Calls
/// arrive on the runner's worker threads. A trial that throws makes the
/// runner, and so the pass, throw; the pass's failure is counted instead.
class TimedAdapter final : public exp::SimulatorAdapter {
 public:
  TimedAdapter(const exp::SimulatorAdapter& inner, std::string events_metric)
      : inner_(inner), events_metric_(std::move(events_metric)) {}

  std::string domain() const override { return inner_.domain(); }
  std::string objective() const override { return inner_.objective(); }
  std::vector<exp::ParamSpec> params() const override {
    return inner_.params();
  }

  exp::TrialResult run(const std::vector<double>& values, std::uint64_t seed,
                       double scale) const override {
    Scope span("trial", layer_.c_str(), parent_);
    const auto t0 = Clock::now();
    exp::TrialResult r = inner_.run(values, seed, scale);
    const double dt = since(t0);
    double events = 0.0;
    for (const auto& [name, v] : r.metrics)
      if (name == events_metric_) events = v;
    std::lock_guard<std::mutex> lock(mu_);
    trial_s_.push_back(dt);
    log_rate_ += std::log(events / dt);
    events_ += static_cast<std::uint64_t>(events);
    return r;
  }

  /// Parent span of the trial spans (the enclosing runner call).
  void set_parent(std::uint64_t parent) { parent_ = parent; }

  /// Per-trial seconds, log work rates and domain events since the last
  /// reset; call only while no trial runs.
  struct Tally {
    std::vector<double> trial_s;
    double log_rate = 0.0;
    std::uint64_t events = 0;
  };
  Tally take() {
    std::lock_guard<std::mutex> lock(mu_);
    Tally t{std::move(trial_s_), log_rate_, events_};
    trial_s_.clear();
    log_rate_ = 0.0;
    events_ = 0;
    return t;
  }

 private:
  const exp::SimulatorAdapter& inner_;
  std::string events_metric_;
  std::string layer_ = inner_.domain();
  std::uint64_t parent_ = 0;
  mutable std::mutex mu_;
  mutable std::vector<double> trial_s_;  // guarded by mu_
  mutable double log_rate_ = 0.0;        // guarded by mu_
  mutable std::uint64_t events_ = 0;     // guarded by mu_
};

struct Campaign {
  std::unique_ptr<exp::SimulatorAdapter> adapter;
  std::unique_ptr<TimedAdapter> timed;
  exp::CampaignSpec spec;
  std::unique_ptr<exp::BoundSpace> space;
  std::vector<exp::TrialTask> tasks;
  std::string store_path;
  std::string aggregate;  // aggregate.json of the last fresh pass
};

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Options& o) : o_(o) {}

  void setup() override {
    // A grid over workload.scenario is half synthetic trials (a few ms) and
    // half trace-driven ones (tens of ms and more), so the median trial
    // would sit in the gap between the two. The p2p campaign runs at scale
    // 0.1, where its trials take about as long as the synthetic serverless
    // ones, and has half as many points, so the median lands in that band.
    const std::string scale = o_.smoke ? "0.1" : "1";
    const auto head = [&](const std::string& scale) {
      return "mode grid\nrepeats 1\nseed " + std::to_string(o_.seed) +
             "\nscale " + scale + "\ndim faults.rate 0\n";
    };
    campaigns_.clear();
    add("serverless", "invocations",
        "campaign e2e-serverless\ndomain serverless\n" + head(scale) +
            (o_.smoke ? "dim keep_alive 0 600\ndim prewarmed 0\n"
                        "dim max_instances 128\n"
                      : "dim keep_alive 0 60 300 600\ndim prewarmed 0 2 8\n"
                        "dim max_instances 32 128 512\n") +
            "dim workload.scenario synthetic feed-fanout\n");
    add("p2p", "peers",
        "campaign e2e-p2p\ndomain p2p\n" + head("0.1") +
            (o_.smoke ? "dim peer_upload_mbps 1\ndim seed_upload_mbps 8 16\n"
                        "dim initial_seeds 1\ndim seed_time_mean 600\n"
                      : "dim peer_upload_mbps 0.5 1 2\n"
                        "dim seed_upload_mbps 4 8 16\ndim initial_seeds 1\n"
                        "dim seed_time_mean 600 1800\n") +
            "dim workload.scenario synthetic video-flashcrowd\n");

    scenario_ = trace::catalog::find("feed-fanout");
    trace_seed_ = derive_seed(o_.seed, 9);
    trace_cap_ = o_.smoke ? 5'000 : kTraceEvents;
    events_ = trace::catalog::events(*scenario_, trace_seed_, trace_cap_);
    atl_path_ = o_.out_dir + "/campaign-feed-fanout.atl";
  }

  void pass(Record& record, bool traced) override {
    obs::Observability plane(0);
    exp::RunnerConfig config;
    config.threads = o_.threads;
    if (traced) config.obs = &plane;
    double fresh_s = 0.0, memo_s = 0.0, aggregate_s = 0.0, trial_sum = 0.0;
    double log_rate = 0.0;
    std::uint64_t executed = 0, memoized = 0, store_bytes = 0, events = 0;
    std::vector<std::pair<std::string, double>> domain_s;

    for (Campaign& c : campaigns_) {
      std::filesystem::remove(c.store_path);
      config.scale = c.spec.scale;
      std::vector<std::optional<exp::TrialRecord>> records;
      {
        Scope span("runner.fresh", "exp");
        c.timed->set_parent(span.id());
        exp::ResultStore store(c.store_path);
        exp::TrialRunner runner(*c.timed, store, config);
        const auto t0 = Clock::now();
        records = runner.run(c.tasks);
        fresh_s += since(t0);
        executed += runner.stats().executed;
      }
      const TimedAdapter::Tally tally = c.timed->take();
      double sum = 0.0;
      for (const double s : tally.trial_s) {
        sum += s;
        record.op_ms.push_back(s * 1e3);
        record.decision_ms.push_back(s * 1e3);
      }
      trial_sum += sum;
      log_rate += tally.log_rate;
      events += tally.events;
      domain_s.emplace_back(c.spec.domain, sum);
      record.ops.add(c.spec.domain + ".trial", c.tasks.size());
      std::error_code ec;
      store_bytes += std::filesystem::file_size(c.store_path, ec);
      record.ops.record(c.spec.domain + ".store", !ec);
      const auto t0 = Clock::now();
      {
        Scope span("aggregate", "exp");
        c.aggregate = exp::aggregate_json(exp::aggregate_campaign(
            c.spec, *c.adapter, *c.space, c.tasks, records));
      }
      aggregate_s += since(t0);
      record.ops.record(c.spec.domain + ".aggregate", true,
                        Digest().text(c.aggregate).hex());
    }

    // Memoized pass: reopen each store from its file and re-run; every
    // trial must be served from the store and aggregate to the same bytes.
    for (Campaign& c : campaigns_) {
      config.scale = c.spec.scale;
      std::vector<std::optional<exp::TrialRecord>> records;
      bool all_memo = false;
      {
        Scope span("runner.memo", "exp");
        const auto t0 = Clock::now();
        exp::ResultStore store(c.store_path);
        exp::TrialRunner runner(*c.timed, store, config);
        records = runner.run(c.tasks);
        memo_s += since(t0);
        all_memo = runner.stats().executed == 0 &&
                   runner.stats().memoized == c.tasks.size();
        memoized += runner.stats().memoized;
      }
      const auto t0 = Clock::now();
      std::string json;
      {
        Scope span("aggregate", "exp");
        json = exp::aggregate_json(exp::aggregate_campaign(
            c.spec, *c.adapter, *c.space, c.tasks, records));
      }
      aggregate_s += since(t0);
      record.ops.record(c.spec.domain + ".memo",
                        all_memo && json == c.aggregate,
                        Digest().text(json).hex());
    }

    // One catalog scenario written to .atl, replayed from the file, and
    // checked against the replay of the same events generated in memory.
    const auto w0 = Clock::now();
    std::uint64_t atl_bytes = 0;
    {
      Scope span("writer", "trace");
      trace::TraceWriter writer(atl_path_, trace::event_schema());
      for (const trace::Event& e : events_) writer.append(e);
      writer.finish();
      atl_bytes = writer.bytes_written();
    }
    const double write_s = since(w0);
    trace::catalog::ReplayOptions from_file;
    if (traced) from_file.obs = &plane.metrics;
    const auto r0 = Clock::now();
    trace::catalog::ReplaySummary file;
    {
      Scope span("replay_file", "trace");
      file = trace::catalog::replay_file(*scenario_, atl_path_, from_file);
    }
    const double replay_s = since(r0);
    trace::catalog::ReplayOptions generated;
    generated.max_events = trace_cap_;
    trace::catalog::ReplaySummary mem;
    {
      Scope span("replay_generated", "trace");
      mem = trace::catalog::replay_generated(*scenario_, trace_seed_, generated);
    }
    const std::string text = file.text();
    record.ops.record("trace.replay_file",
                      text == mem.text() && file.events == events_.size(),
                      Digest().text(text).hex());
    record.ops.record("trace.replay_generated", true,
                      Digest().text(mem.text()).hex());

    const double trials = static_cast<double>(executed);
    record.events += events + file.events + mem.events;
    record.op_per_pass = record.decision_per_pass = executed;
    record.rate("trials_per_s", trials / fresh_s);
    record.rate("events_per_s", static_cast<double>(events) / fresh_s);
    record.rate("evps_gmean", std::exp(log_rate / trials));
    if (!traced) return;
    record.ops.record(
        "obs.exp_executed",
        plane.metrics.counter("exp.trials_executed").value() == executed);
    record.ops.record(
        "obs.trace_replay_events",
        plane.metrics.counter("trace.replay_events").value() == file.events);
    record.layer("exp.fresh_s", fresh_s);
    record.layer("exp.memo_s", memo_s);
    record.layer("exp.aggregate_s", aggregate_s);
    record.layer("exp.store_bytes", static_cast<double>(store_bytes));
    record.layer("exp.parallel_eff",
                 trial_sum / (static_cast<double>(o_.threads) * fresh_s));
    record.layer("exp.trials_executed", trials);
    record.layer("exp.trials_memoized", static_cast<double>(memoized));
    for (const auto& [domain, s] : domain_s) record.layer(domain + ".trial_s", s);
    record.layer("trace.write_s", write_s);
    record.layer("trace.replay_s", replay_s);
    record.layer("trace.events", static_cast<double>(events_.size()));
    record.layer("trace.bytes_per_event", static_cast<double>(atl_bytes) /
                                              static_cast<double>(events_.size()));
  }

 private:
  void add(const std::string& domain, const std::string& events_metric,
           const std::string& spec_text) {
    Campaign c;
    c.adapter = exp::make_adapter(domain);
    c.timed = std::make_unique<TimedAdapter>(*c.adapter, events_metric);
    c.spec = exp::parse_campaign_spec(spec_text);
    c.space = std::make_unique<exp::BoundSpace>(*c.adapter, c.spec);
    c.tasks = exp::enumerate_trials(c.spec, *c.space);
    c.store_path = o_.out_dir + "/campaign-" + domain + ".jsonl";
    campaigns_.push_back(std::move(c));
  }

  static constexpr std::size_t kTraceEvents = 400'000;

  Options o_;
  std::vector<Campaign> campaigns_;
  const trace::catalog::Scenario* scenario_ = nullptr;
  std::uint64_t trace_seed_ = 0;
  std::size_t trace_cap_ = 0;
  std::vector<trace::Event> events_;
  std::string atl_path_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const Options& options) {
  return std::make_unique<CampaignWorkload>(options);
}

}  // namespace e2e
