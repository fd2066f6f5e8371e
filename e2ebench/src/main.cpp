// End-to-end benchmark binary: runs one workload through the library's
// public API and prints the raw measurements as one JSON object on stdout.
// run.py builds this binary, calls it and reports the metrics.
//
//   e2ebench --workload portfolio|ecosystem|graph|campaign --seed N
//            --seconds S --trace 0|1 --out-dir DIR [--smoke]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using e2e::Clock;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload W --seed N "
               "--seconds S --trace 0|1 --out-dir DIR "
               "[--smoke]\n",
               why);
  std::exit(2);
}

/// CPUs this process may run on.
std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options o;
  o.threads = cpu_count();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (arg == "--out-dir") o.out_dir = v;
    else usage(("unknown flag " + arg).c_str());
  }
  if (o.seconds <= 0.0) usage("bad --seconds");
  return o;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_map(const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  for (const auto& [name, values] : m) {
    if (out.size() > 1) out += ',';
    out += '"' + name + "\":" + json_list(values);
  }
  return out + "}";
}

/// Timed passes until `seconds` are spent and at least min_passes ran; with
/// `sampled`, also until both latency sample sets hold kMinSamples more
/// values. Each traced pass is followed by a traced reference run, outside
/// the pass's wall time. Returns the wall time of each pass; a pass that
/// throws ends the loop, sets `threw` and counts as a failed operation.
std::vector<double> timed_passes(e2e::Workload& w, e2e::Record& record,
                                 double seconds, bool traced, bool sampled,
                                 bool& threw) {
  std::vector<double> walls;
  const std::size_t more = sampled ? e2e::kMinSamples : 0;
  const std::size_t decisions = record.decision_ms.size() + more;
  const std::size_t ops = record.op_ms.size() + more;
  const auto start = Clock::now();
  while (walls.size() < w.min_passes() || e2e::since(start) < seconds ||
         record.decision_ms.size() < decisions || record.op_ms.size() < ops) {
    const auto t0 = Clock::now();
    try {
      w.pass(record, traced);
      walls.push_back(e2e::since(t0));
      if (traced) w.reference(record, true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: pass failed: %s\n", e.what());
      record.ops.record("pass", false);
      threw = true;
      break;
    }
  }
  return walls;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG)
  std::fprintf(stderr, "e2ebench: refusing to time a build with assertions "
                       "on (build type " E2E_BUILD_TYPE ")\n");
  return 2;
#endif
  const e2e::Options options = parse(argc, argv);
  std::unique_ptr<e2e::Workload> workload;
  if (options.workload == "portfolio") workload = e2e::make_portfolio(options);
  else if (options.workload == "ecosystem") workload = e2e::make_ecosystem(options);
  else if (options.workload == "graph") workload = e2e::make_graph(options);
  else if (options.workload == "campaign") workload = e2e::make_campaign(options);
  else usage("unknown --workload");

  // Set-up is repeated and reported as a median, so work moved into it
  // shows and a single slow repetition does not. Each repetition runs on
  // the next CPU, so the median spans every CPU's speed.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < 5 || (setup_total < 0.5 && setup_s.size() < 200)) {
    e2e::next_cpu();
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(e2e::since(t0));
    setup_total += setup_s.back();
  }
  e2e::any_cpu();

  e2e::Record record;
  try {
    workload->reference(record, false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: reference run failed: %s\n", e.what());
    record.ops.record("reference", false);
  }

  // A traced run splits its time between untraced passes (the baseline of
  // the tracing overhead) and traced passes (the per-layer values). Only an
  // untraced run reports latencies, so only it needs their samples.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  bool threw = false;
  const std::vector<double> passes =
      timed_passes(*workload, record, budget, false, !options.trace, threw);
  std::vector<double> traced;
  std::string trace_path;
  if (options.trace) {
    e2e::enable_spans(true);
    traced = timed_passes(*workload, record, budget, true, false, threw);
    e2e::enable_spans(false);
    // finish() takes medians over the traced passes and reference runs,
    // which a pass that threw may have left empty; the run has failed.
    try {
      if (!threw) workload->finish(record);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: finish failed: %s\n", e.what());
      record.ops.record("finish", false);
    }
    const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
    for (const auto& [layer, self] : e2e::layer_self_seconds())
      record.layer(layer + ".self_s", self / n);
    trace_path = options.out_dir + "/trace-" + options.workload + ".json";
    if (!e2e::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_path.c_str());
      record.ops.record("chrome_trace", false);
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%zu,\"smoke\":%s,"
      "\"build_type\":\"%s\",\"setup_s\":%s,\"pass_s\":%s,"
      "\"traced_pass_s\":%s,\"min_passes\":%zu,\"min_samples\":%zu,"
      "\"decision_ms\":%s,\"op_ms\":%s,\"decision_per_pass\":%zu,"
      "\"op_per_pass\":%zu,\"series\":%s,\"layers\":%s,\"ops\":%s,"
      "\"events\":%llu,\"peak_rss_mb\":%.17g,\"chrome_trace\":\"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.threads, options.smoke ? "true" : "false", E2E_BUILD_TYPE,
      json_list(setup_s).c_str(), json_list(passes).c_str(),
      json_list(traced).c_str(), workload->min_passes(), e2e::kMinSamples,
      json_list(record.decision_ms).c_str(), json_list(record.op_ms).c_str(),
      record.decision_per_pass, record.op_per_pass,
      json_map(record.series).c_str(), json_map(record.layers).c_str(),
      record.ops.json().c_str(),
      static_cast<unsigned long long>(record.events),
      static_cast<double>(ru.ru_maxrss) / 1024.0, trace_path.c_str());
  return 0;
}
