#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>

namespace e2e {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// The CPU set the process started with.
const cpu_set_t& process_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t out;
    CPU_ZERO(&out);
    if (sched_getaffinity(0, sizeof out, &out) != 0) CPU_SET(0, &out);
    return out;
  }();
  return set;
}

}  // namespace

// Affinity changes are best effort: they only steady the timings.
void next_cpu() {
  static std::size_t next = 0;
  const cpu_set_t& all = process_cpus();
  const int n = CPU_COUNT(&all);
  if (n < 2) return;
  int skip = static_cast<int>(next++ % static_cast<std::size_t>(n));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

void any_cpu() { sched_setaffinity(0, sizeof(cpu_set_t), &process_cpus()); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Digest& Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

void Ops::record(const std::string& name, bool ok, const std::string& digest) {
  Op& op = ops_[name];
  if (op.count == 0) op.digest = digest;
  ++op.count;
  if (!ok || digest != op.digest) ++op.failed;
}

void Ops::add(const std::string& name, std::uint64_t count) {
  ops_[name].count += count;
}

std::string Ops::json() const {
  std::string out = "{";
  for (const auto& [name, op] : ops_) {
    if (out.size() > 1) out += ',';
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "\":{\"count\":%" PRIu64 ",\"failed\":%" PRIu64
                  ",\"digest\":\"",
                  op.count, op.failed);
    out += '"' + name + buf + op.digest + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- spans --

namespace {

struct Span {
  const char* name;
  const char* layer;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t tid;
  double start_us;
  double end_us;
};

std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_tid{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_spans_mu;
std::vector<Span> g_spans;  // guarded by g_spans_mu

thread_local std::vector<std::uint64_t> t_open;  // open span ids, innermost last
thread_local std::uint32_t t_tid = 0;

double micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

std::vector<Span> snapshot() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  return g_spans;
}

}  // namespace

void enable_spans(bool on) { g_spans_on.store(on); }

Scope::Scope(const char* name, const char* layer, std::uint64_t parent)
    : name_(name), layer_(layer) {
  if (!g_spans_on.load(std::memory_order_relaxed)) return;
  id_ = g_next_span.fetch_add(1);
  parent_ = parent != 0 ? parent : (t_open.empty() ? 0 : t_open.back());
  t_open.push_back(id_);
  start_ = Clock::now();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  t_open.pop_back();
  if (dropped_) return;
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  const Span span{name_, layer_, id_, parent_, t_tid, micros(start_),
                  micros(end)};
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(span);
}

std::map<std::string, double> layer_self_seconds() {
  const std::vector<Span> spans = snapshot();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent: children on
      // worker threads overlap one another.
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double lo = s.start_us, hi = s.start_us;
      for (const auto& [a, b] : kids) {
        const double ca = std::max(a, s.start_us), cb = std::min(b, s.end_us);
        if (cb <= ca) continue;
        if (ca > hi) {
          covered += hi - lo;
          lo = ca;
        }
        hi = std::max(hi, cb);
      }
      covered += hi - lo;
    }
    self[s.layer] += (s.end_us - s.start_us - covered) * 1e-6;
  }
  return self;
}

bool write_chrome_trace(const std::string& path) {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.tid, s.start_us,
                 s.end_us - s.start_us, s.id, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
