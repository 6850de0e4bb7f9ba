// Shared vocabulary of the repo benchmark: run options, the result line,
// sample statistics and the in-memory span log that the traced runs fill.
//
// Spans are recorded by the benchmark's own code around each public call it
// makes into a quanta module (name, start, end, parent span, request id).
// Each thread owns one SpanLog, so recording never synchronizes; the logs
// are merged and written out once, when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one expected value so the correctness gate
  /// must fire.
  bool tamper = false;
  /// Scratch directory of this run (sockets, state dirs, checkpoints).
  std::string run_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_path;
};

/// What one run reports. `metrics` keeps insertion order for printing.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable context (bases of ratios, sample counts) for stderr.
  std::vector<std::string> notes;
  /// Set when the exploration replay did not reproduce the engine's counts:
  /// the ta.* / core.* / store.* split is then withheld, not reported.
  bool withhold_replay = false;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed correctness check: the run is wrong and one more
  /// operation counts as failed.
  void mismatch(const std::string& what) {
    correct = false;
    if (++failed <= 20) notes.push_back("MISMATCH: " + what);
  }
};

// ---------------------------------------------------------------- statistics

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// SplitMix64 finalizer: how the benchmark derives every input (SMC seeds,
/// mix order, key picks) from the one workload seed.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Peak resident set of this process (workers excluded), in MiB.
double peak_rss_mib();

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name = "";
  std::int32_t parent = -1;  ///< index in the same log; -1 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint64_t request) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (seconds) of every span named `name`: its duration minus the
  /// part its child spans cover. Children of one span never overlap here —
  /// every span of a request is recorded on the thread that made the calls.
  std::vector<double> self_seconds(const std::string& name) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span on an optional log: a null log records nothing, which is how
/// the untraced runs share the traced runs' code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int32_t parent,
             std::uint64_t request)
      : log_(log), id_(log ? log->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Concatenates the per-thread logs' self times for `name`.
std::vector<double> self_seconds(const std::vector<const SpanLog*>& logs,
                                 const std::string& name);

/// Writes the logs as JSON lines (one span per line, `thread` = log index),
/// at most `max_spans` of them; returns the number written.
std::size_t write_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t max_spans);

// ---------------------------------------------------------------- workloads

Result run_paper_batch(const Options& opt);
Result run_svc_cold(const Options& opt);
Result run_svc_hit(const Options& opt);

}  // namespace perfbench
