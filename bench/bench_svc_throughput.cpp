// ESVC — analysis-service throughput: cold (engine-bound) versus cached
// (fingerprint-hit) request rates of a quantad server over a real Unix
// socket, per session count.
//
//   bench_svc_throughput [--model train-gate-3] [--clients "1 2 4 8"]
//                        [--seconds S] [--cold-reps R]
//
// Cold rows bypass the result cache (every request runs the engine), cached
// rows hit one warm entry. The gap is the cache's value under repeated
// fleet queries; the cold row doubles as the daemon's per-request overhead
// ceiling (framing + admission + governance on top of the raw engine).
// Cold throughput saturates at the engine's single-core rate times the
// worker count; cached throughput is protocol-bound and scales with
// sessions until the accept/session threads saturate a core. Every cold
// job pays one frame hop each way to a sandboxed worker process (workers
// are preforked and reused, so no fork cost appears on the steady-state
// path).
//
// The ESVC-DUR section prices durability (--state-dir): the journaled cold
// latency against an in-memory daemon's, measured back-to-back (the
// write-ahead admit/complete records sit on the response path), boot
// replay time as a function of journal length, and the warm hit latency a
// restarted daemon serves from its reloaded cache segment.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/server.h"

using namespace quanta;

namespace {

svc::Request make_request(const std::string& model, bool use_cache) {
  svc::Request r;
  r.engine = "mc";
  r.model = model;
  r.query = "mutex";
  r.use_cache = use_cache;
  return r;
}

/// Requests per second over `seconds` wall-clock from `clients` concurrent
/// sessions, all issuing the same query. Returns 0 on any failed request.
double measure_qps(const std::string& socket_path, const std::string& model,
                   bool use_cache, int clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&] {
      svc::Client client;
      std::string error;
      if (!client.connect_unix(socket_path, &error)) {
        failed.store(true);
        return;
      }
      const svc::Request req = make_request(model, use_cache);
      while (!stop.load(std::memory_order_relaxed)) {
        svc::Response resp;
        if (!client.analyze(req, &resp, &error) ||
            resp.status != svc::Status::kOk) {
          failed.store(true);
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  bench::Stopwatch timer;
  while (timer.seconds() < seconds && !failed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double elapsed = timer.seconds();
  stop.store(true);
  for (auto& t : threads) t.join();
  if (failed.load()) return 0.0;
  return static_cast<double>(completed.load()) / elapsed;
}

std::string fmt(double v, const char* spec = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

/// Mean sequential cache-bypassed latency in ms: every request pays one
/// full engine run plus the service and worker-dispatch overhead.
double cold_latency_ms(const std::string& socket_path, const std::string& model,
                       int reps) {
  svc::Client client;
  std::string error;
  if (!client.connect_unix(socket_path, &error)) {
    std::fprintf(stderr, "bench_svc_throughput: %s\n", error.c_str());
    return -1.0;
  }
  double total = 0.0;
  for (int i = 0; i < reps; ++i) {
    svc::Response resp;
    bench::Stopwatch timer;
    if (!client.analyze(make_request(model, /*use_cache=*/false), &resp,
                        &error) ||
        resp.status != svc::Status::kOk) {
      std::fprintf(stderr, "bench_svc_throughput: cold query failed: %s %s\n",
                   error.c_str(), resp.error.c_str());
      return -1.0;
    }
    total += timer.seconds();
  }
  return 1000.0 * total / reps;
}

/// Mean sequential cached-hit latency in ms over `reps` requests.
double warm_latency_ms(const std::string& socket_path, const std::string& model,
                       int reps) {
  svc::Client client;
  std::string error;
  if (!client.connect_unix(socket_path, &error)) return -1.0;
  double total = 0.0;
  for (int i = 0; i < reps; ++i) {
    svc::Response resp;
    bench::Stopwatch timer;
    if (!client.analyze(make_request(model, /*use_cache=*/true), &resp,
                        &error) ||
        resp.status != svc::Status::kOk || !resp.cached) {
      return -1.0;
    }
    total += timer.seconds();
  }
  return 1000.0 * total / reps;
}

/// Time to fold a journal of `jobs` completed jobs (3 records each) back
/// into state — the fixed cost a restart pays before serving.
double replay_ms(const std::string& dir, const std::string& model, int jobs) {
  const std::string path = dir + "/replay-" + std::to_string(jobs) + ".qjrnl";
  svc::Response answer;
  answer.status = svc::Status::kOk;
  answer.verdict = common::Verdict::kHolds;
  answer.stop = common::StopReason::kCompleted;
  answer.stored = 253;
  answer.explored = 250;
  answer.transitions = 390;
  const std::string answer_json = to_wire(answer).to_json();
  const std::string request_json =
      to_wire(make_request(model, /*use_cache=*/false)).to_json();
  {
    svc::Journal journal;
    std::string error;
    if (!journal.open(path, svc::JournalReplay{}, &error)) return -1.0;
    for (int t = 1; t <= jobs; ++t) {
      const auto ticket = static_cast<std::uint64_t>(t);
      journal.admit(ticket, ticket, request_json);
      journal.start(ticket, ticket);
      journal.complete(ticket, ticket, answer_json);
    }
    if (journal.append_failures() != 0) return -1.0;
  }
  bench::Stopwatch timer;
  const svc::JournalReplay replay = svc::Journal::replay(path);
  const double ms = 1000.0 * timer.seconds();
  return replay.fresh || replay.dropped != 0 ? -1.0 : ms;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "train-gate-3";
  std::string clients_spec = "1 2 4 8";
  double seconds = 2.0;
  int cold_reps = 5;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_svc_throughput: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--model") == 0) {
      model = need("--model");
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      clients_spec = need("--clients");
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atof(need("--seconds"));
    } else if (std::strcmp(argv[i], "--cold-reps") == 0) {
      cold_reps = std::atoi(need("--cold-reps"));
    } else {
      std::fprintf(stderr, "bench_svc_throughput: unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  char dir[] = "/tmp/qsvc-bench-XXXXXX";
  if (::mkdtemp(dir) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string socket_path = std::string(dir) + "/d.sock";
  svc::ServerConfig cfg;
  cfg.socket_path = socket_path;
  svc::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_svc_throughput: %s\n", error.c_str());
    return 1;
  }

  const double cold_ms = cold_latency_ms(socket_path, model, cold_reps);
  if (cold_ms < 0.0) return 1;

  // Warm the single cache entry the cached rows will hit.
  {
    svc::Client client;
    svc::Response resp;
    if (!client.connect_unix(socket_path, &error) ||
        !client.analyze(make_request(model, /*use_cache=*/true), &resp,
                        &error) ||
        resp.status != svc::Status::kOk) {
      std::fprintf(stderr, "bench_svc_throughput: warm-up failed\n");
      return 1;
    }
  }

  std::printf("== ESVC: service throughput, %s mutex, cold %.2f ms/query ==\n",
              model.c_str(), cold_ms);
  bench::Table table({"sessions", "cold q/s", "cached q/s", "speedup"});
  std::istringstream spec(clients_spec);
  int clients = 0;
  bool ok = true;
  while (spec >> clients) {
    const double cold_qps =
        measure_qps(socket_path, model, /*use_cache=*/false, clients, seconds);
    const double cached_qps =
        measure_qps(socket_path, model, /*use_cache=*/true, clients, seconds);
    if (cold_qps == 0.0 || cached_qps == 0.0) ok = false;
    table.row({std::to_string(clients), fmt(cold_qps), fmt(cached_qps),
               fmt(cold_qps > 0 ? cached_qps / cold_qps : 0.0, "%.0fx")});
  }
  table.print();
  const auto stats = server.stats();
  std::printf("  cache: %llu hits / %llu misses, engine runs: %llu "
              "(workers spawned: %llu)\n",
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.jobs_executed),
              static_cast<unsigned long long>(stats.supervisor.spawned));
  server.stop();

  // --- ESVC-DUR: the price and payoff of --state-dir durability ---------
  // A fresh in-memory baseline measured back-to-back with the journaled
  // daemon: the process is equally warm for both, so the delta prices the
  // journal appends alone (the headline cold_ms above includes first-run
  // warm-up and would overstate — or understate — the difference).
  svc::ServerConfig base_cfg;
  base_cfg.socket_path = std::string(dir) + "/d-base.sock";
  svc::Server base_server(base_cfg);
  svc::ServerConfig dur_cfg;
  dur_cfg.socket_path = std::string(dir) + "/d-dur.sock";
  dur_cfg.state_dir = std::string(dir) + "/state";
  auto dur_server = std::make_unique<svc::Server>(dur_cfg);
  if (!base_server.start(&error) || !dur_server->start(&error)) {
    std::fprintf(stderr, "bench_svc_throughput: %s\n", error.c_str());
    return 1;
  }
  const double base_cold_ms =
      cold_latency_ms(base_cfg.socket_path, model, cold_reps);
  const double dur_cold_ms =
      cold_latency_ms(dur_cfg.socket_path, model, cold_reps);
  base_server.stop();
  if (base_cold_ms < 0.0 || dur_cold_ms < 0.0) return 1;
  const double journal_pct =
      base_cold_ms > 0.0 ? 100.0 * (dur_cold_ms - base_cold_ms) / base_cold_ms
                         : 0.0;
  // Seed one cacheable entry, then restart the daemon over its state dir:
  // warm hits must come from the reloaded segment, not a re-run engine.
  {
    svc::Client client;
    svc::Response resp;
    if (!client.connect_unix(dur_cfg.socket_path, &error) ||
        !client.analyze(make_request(model, /*use_cache=*/true), &resp,
                        &error) ||
        resp.status != svc::Status::kOk) {
      std::fprintf(stderr, "bench_svc_throughput: durable warm-up failed\n");
      return 1;
    }
  }
  dur_server.reset();
  bench::Stopwatch restart_timer;
  dur_server = std::make_unique<svc::Server>(dur_cfg);
  if (!dur_server->start(&error)) {
    std::fprintf(stderr, "bench_svc_throughput: restart: %s\n", error.c_str());
    return 1;
  }
  const double restart_ms = 1000.0 * restart_timer.seconds();
  const int warm_reps = 200;
  const double warm_ms = warm_latency_ms(dur_cfg.socket_path, model, warm_reps);
  const auto dur_stats = dur_server->stats();
  const double hit_rate =
      dur_stats.cache.hits + dur_stats.cache.misses > 0
          ? 100.0 * static_cast<double>(dur_stats.cache.hits) /
                static_cast<double>(dur_stats.cache.hits +
                                    dur_stats.cache.misses)
          : 0.0;
  dur_server->stop();

  std::printf(
      "== ESVC-DUR: durable daemon, %s mutex ==\n"
      "  journaled cold: %.2f ms/query (%+.1f%% vs %.2f ms in-memory, "
      "measured back-to-back)\n"
      "  restart: %.2f ms to boot over %llu reloaded cache entries; "
      "warm hits after restart: %.3f ms/query, hit rate %.0f%% "
      "(engine runs: %llu)\n",
      model.c_str(), dur_cold_ms, journal_pct, base_cold_ms, restart_ms,
      static_cast<unsigned long long>(dur_stats.cache.persist_loaded),
      warm_ms, hit_rate,
      static_cast<unsigned long long>(dur_stats.jobs_executed));
  if (warm_ms < 0.0) ok = false;
  bench::Table replay_table({"journal jobs", "records", "replay ms",
                             "ms / 1k records"});
  for (const int jobs : {64, 256, 1024}) {
    const double ms = replay_ms(dir, model, jobs);
    if (ms < 0.0) ok = false;
    const int records = 3 * jobs;
    replay_table.row({std::to_string(jobs), std::to_string(records),
                      fmt(ms, "%.2f"), fmt(1000.0 * ms / records, "%.2f")});
  }
  replay_table.print();
  return ok ? 0 : 1;
}
