#pragma once
// Shared main() for the google-benchmark binaries: translates the repo's
// `--json[=path]` convention into google-benchmark's JSON output flags so
// CI and the tracked BENCH_*.json snapshots use one stable spelling
// regardless of the benchmark library version in use.
//
// Every run also stamps provenance into the JSON `context` block:
//   * git_sha          — the commit the binary was built from (via the
//                        ATLARGE_GIT_SHA compile definition, "unknown"
//                        outside a git checkout);
//   * atlarge_build_type — CMAKE_BUILD_TYPE of this build, so the perf
//                        gate (bench/compare_bench.py) can refuse to
//                        compare a Debug run against a Release baseline.
//
// Usage (exactly once per binary, after all BENCHMARK registrations):
//
//   ATLARGE_BENCH_JSON_MAIN("BENCH_kernel.json")

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#ifndef ATLARGE_GIT_SHA
#define ATLARGE_GIT_SHA "unknown"
#endif
#ifndef ATLARGE_BUILD_TYPE
#define ATLARGE_BUILD_TYPE "unknown"
#endif

namespace atlarge::bench {

/// Runs the registered benchmarks, rewriting `--json[=path]` (default
/// output path `default_json`) into --benchmark_out/--benchmark_out_format.
/// Returns the process exit code.
inline int run_benchmarks_with_json_flag(int argc, char** argv,
                                         const std::string& default_json) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  std::string json_path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
      continue;
    }
    args.push_back(argv[i]);
  }
  static std::string out_flag, format_flag;
  if (json) {
    out_flag =
        "--benchmark_out=" + (json_path.empty() ? default_json : json_path);
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::AddCustomContext("git_sha", ATLARGE_GIT_SHA);
  benchmark::AddCustomContext("atlarge_build_type", ATLARGE_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace atlarge::bench

#define ATLARGE_BENCH_JSON_MAIN(default_json)                              \
  int main(int argc, char** argv) {                                        \
    return atlarge::bench::run_benchmarks_with_json_flag(argc, argv,       \
                                                         (default_json));  \
  }
