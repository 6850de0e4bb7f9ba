// perfbench — the repo benchmark's program.
//
//   perfbench --workload <paper-batch|svc-cold|svc-hit> --seed <n>
//             --seconds <s> --trace <0|1> --run-dir <dir>
//             [--trace-out <file>] [--tamper]
//
// Runs one workload for the given time and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs (--trace 0) report the end-to-end metrics;
// traced runs (--trace 1) report the per-layer split. Exits 1 when any
// answer was wrong, 2 on a usage or set-up error (then without a result).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the active list (see LAYERS.md for
// what each one means on each workload).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"job_s", "s"},          {"qps", "1/s"},
    {"lat_p50_ms", "ms"},  {"lat_p90_ms", "ms"},    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"ta.succ_s", "s"},
    {"ta.succ_calls", "count"},
    {"core.intern_s", "s"},
    {"core.intern_calls", "count"},
    {"core.dedup_ratio", "1"},
    {"core.covered", "count"},
    {"core.max_chain", "count"},
    {"store.pool_hit_rate", "1"},
    {"store.payload_ratio", "1"},
    {"store.resident_mib", "MiB"},
    {"mc.call_s", "s"},
    {"cora.call_s", "s"},
    {"game.call_s", "s"},
    {"smc.call_s", "s"},
    {"pta.build_s", "s"},
    {"mdp.solve_s", "s"},
    {"exec.runs_per_s", "1/s"},
    {"exec.parallelism", "1"},
    {"exec.sim_steps", "count"},
    {"svc.wire_encode_us", "us"},
    {"svc.wire_parse_us", "us"},
    {"svc.prepare_us", "us"},
    {"svc.cache_lookup_us", "us"},
    {"svc.cache_insert_us", "us"},
    {"svc.journal_append_us", "us"},
    {"ckpt.sink_ms", "ms"},
    {"svc.worker_hop_ms", "ms"},
    {"svc.engine_ms", "ms"},
    {"svc.unattributed_ms", "ms"},
    {"svc.cache_hit_ratio", "1"},
    {"svc.cache_evictions", "count"},
    {"svc.jobs_executed", "count"},
    {"svc.journal_appends_per_job", "1"},
    {"svc.overloads", "count"},
    {"svc.worker_spawned", "count"},
    {"svc.worker_crashes", "count"},
    {"svc.replay_ms", "ms"},
    {"svc.cache_reloaded", "count"},
    {"trace.job_s_delta", "s"},
    {"trace.qps_delta", "1/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper-batch|svc-cold|svc-hit> --seed <n> --seconds <s> "
               "--trace <0|1> --run-dir <dir> [--trace-out <file>] "
               "[--tamper]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Orders the workload's metrics by the active list. A layer the workload
/// never passes through reads 0 (no work in that layer); an end-to-end
/// metric must always be measured.
bool finalize(bool traced, Result* r) {
  std::map<std::string, std::pair<double, std::string>> got(r->metrics.begin(),
                                                            r->metrics.end());
  decltype(r->metrics) out;
  bool ok = true;
  auto take = [&](const MetricSpec& spec, bool zero_if_missing) {
    auto it = got.find(spec.name);
    if (it == got.end()) {
      if (!zero_if_missing) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     spec.name);
        ok = false;
        return;
      }
      out.push_back({spec.name, {0.0, spec.unit}});
      return;
    }
    if (it->second.second != spec.unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, expected %s\n",
                   spec.name, it->second.second.c_str(), spec.unit);
      ok = false;
    }
    out.push_back({spec.name, it->second});
  };
  if (traced) {
    for (const MetricSpec& m : kPerLayer) {
      const std::string n = m.name;
      const bool replay_layer = n.rfind("ta.", 0) == 0 ||
                                n.rfind("core.", 0) == 0 ||
                                n.rfind("store.", 0) == 0;
      if (replay_layer && r->withhold_replay) continue;
      take(m, true);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) take(m, false);
  }
  r->metrics = std::move(out);
  return ok;
}

}  // namespace

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> SpanLog::self_seconds(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                    1e-9);
    }
  }
  return out;
}

std::vector<double> self_seconds(const std::vector<const SpanLog*>& logs,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    const std::vector<double> v = log->self_seconds(name);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::size_t write_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t max_spans) {
  if (path.empty()) return 0;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return 0;
  }
  std::size_t written = 0;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      if (written == max_spans) return written;
      f << "{\"thread\":" << t << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
      ++written;
    }
  }
  return written;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = opt.seconds > 0;
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (a == "--run-dir") {
      opt.run_dir = value();
    } else if (a == "--trace-out") {
      opt.trace_path = value();
    } else if (a == "--tamper") {
      opt.tamper = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.run_dir.empty()) {
    usage("--workload, --seed, --seconds, --trace and --run-dir are required");
  }

  Result r;
  try {
    if (opt.workload == "paper-batch") {
      r = run_paper_batch(opt);
    } else if (opt.workload == "svc-cold") {
      r = run_svc_cold(opt);
    } else if (opt.workload == "svc-hit") {
      r = run_svc_hit(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& n : r.notes) {
    std::fprintf(stderr, "perfbench[%s]: %s\n", opt.workload.c_str(), n.c_str());
  }
  // A wrong answer may leave a metric unmeasured (the replay-fidelity gate
  // withholds the split), so completeness is only demanded of correct runs.
  if (!finalize(opt.trace, &r) && r.correct) return 2;
  if (r.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 2;
  }

  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
