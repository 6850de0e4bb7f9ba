// Workloads svc-cold and svc-hit: client queries through svc::Server, the
// worker processes and the engines, in production daemon settings (isolated
// workers, 4 job runners, a state dir and a checkpoint dir). Both are closed
// loops — each client sends its next request when the previous one answered.
//
//   svc-cold  4 clients, every request a cache miss, mix fixed by the seed
//             (per deck of 10: 4 mc train-gate-3 mutex without cache, 2 mc
//             train-gate-4 mutex with a checkpoint interval, 2 smc
//             train-gate-3 pr-cross with a fresh seed, 1 game train-game-1,
//             1 cora train-gate-2).
//   svc-hit   2 clients, every request a cache hit. A first daemon fills
//             thousands of keys and stops; set-up is the restart of a second
//             daemon over that state dir (journal replay, segment reload).
//             The restarted daemon and its clients share two CPUs.
//
// Everything is timed from outside: the round trip in the client, and in the
// traced run, the module calls the benchmark makes itself (wire, registry,
// cache, journal, supervisor, engine) on the same requests.
#include <sched.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "ckpt/delta.h"
#include "engines.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/registry.h"
#include "svc/result_cache.h"
#include "svc/server.h"
#include "svc/supervisor.h"

namespace perfbench {

namespace q = quanta;
namespace svc = quanta::svc;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupReps = 7;
constexpr std::uint64_t kSmcRuns = 200;
constexpr std::uint64_t kCkptInterval = 1000;
constexpr std::size_t kColdPass = 200;   ///< requests per svc-cold job
constexpr std::size_t kHitPass = 5000;   ///< requests per svc-hit job
constexpr std::size_t kFillSmcKeys = 3000;
constexpr int kAttributionDecks = 10;
constexpr std::size_t kMaxTraceSpans = 50000;
/// Load before the timed window, so worker warm-up and first-touch page
/// faults are not timed; its answers are still checked.
constexpr double kWarmupSeconds = 1.0;

// ------------------------------------------------------------------ daemon

svc::ServerConfig production_config(const std::string& dir) {
  svc::ServerConfig cfg;
  cfg.socket_path = dir + "/q.sock";
  cfg.isolate = true;
  cfg.jobs = 4;
  cfg.state_dir = dir + "/state";
  cfg.ckpt_dir = dir + "/ckpt";
  return cfg;
}

std::unique_ptr<svc::Server> start_server(const svc::ServerConfig& cfg) {
  auto server = std::make_unique<svc::Server>(cfg);
  std::string err;
  if (!server->start(&err)) {
    throw std::runtime_error("daemon start failed: " + err);
  }
  return server;
}

// ------------------------------------------------------------------ requests

/// The svc-cold classes, in deck order.
enum Cls { kMc3 = 0, kMc4Ckpt, kSmc, kGame1, kCora2, kClassCount };
constexpr const char* kClassNames[] = {"mc train-gate-3", "mc train-gate-4",
                                       "smc train-gate-3", "game train-game-1",
                                       "cora train-gate-2"};
constexpr Cls kDeck[10] = {kMc3, kMc3, kMc3, kMc3, kMc4Ckpt,
                           kMc4Ckpt, kSmc, kSmc, kGame1, kCora2};

svc::Request make_request(Cls c, std::uint64_t smc_seed) {
  svc::Request r;
  switch (c) {
    case kMc3:
    case kMc4Ckpt:
      r.engine = "mc";
      r.model = c == kMc3 ? "train-gate-3" : "train-gate-4";
      r.query = "mutex";
      r.use_cache = false;
      if (c == kMc4Ckpt) r.ckpt_interval = kCkptInterval;
      break;
    case kSmc:
      r.engine = "smc";
      r.model = "train-gate-3";
      r.query = "pr-cross";
      r.runs = kSmcRuns;
      r.seed = smc_seed;
      break;
    case kGame1:
      r.engine = "game";
      r.model = "train-game-1";
      r.query = "reach-cross";
      r.use_cache = false;
      break;
    case kCora2:
      r.engine = "cora";
      r.model = "train-gate-2";
      r.query = "mincost-cross";
      r.use_cache = false;
      break;
    default:
      break;
  }
  return r;
}

/// The svc-cold request stream: request `seq` is slot seq % 10 of deck
/// seq / 10, each deck a seed-shuffled permutation of kDeck.
struct ColdMix {
  std::uint64_t seed;
  Cls cls(std::uint64_t seq) const {
    Cls deck[10];
    std::copy(std::begin(kDeck), std::end(kDeck), deck);
    std::uint64_t x = splitmix64(seed ^ splitmix64(seq / 10));
    for (int i = 9; i > 0; --i) {
      x = splitmix64(x);
      std::swap(deck[i], deck[x % static_cast<std::uint64_t>(i + 1)]);
    }
    return deck[seq % 10];
  }
  std::uint64_t smc_seed(std::uint64_t seq) const {
    return splitmix64(splitmix64(seed) + seq);
  }
  svc::Request request(std::uint64_t seq) const {
    return make_request(cls(seq), smc_seed(seq));
  }
};

/// Every field but `cached`, which is the one a hit may flip.
std::vector<std::pair<std::string, std::string>> answer_fields(
    const svc::WireMap& m) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& kv : m.fields()) {
    if (kv.first != "cached") out.push_back(kv);
  }
  return out;
}

// ------------------------------------------------------------------ load

/// Module calls the traced run repeats on each request, on the benchmark's
/// own instances (the daemon's are private): a cache and a journal living
/// under the run dir, guarded by the benchmark's mutexes.
struct Mirror {
  std::mutex mu;
  svc::ResultCache cache{64ull << 20};
  svc::Journal journal;
  std::uint64_t ticket = 0;
  bool cold = false;  ///< also probe insert and the three journal appends
};

/// Round trips grouped into jobs of `pass_size` consecutive answers. Only
/// the jobs still filling are buffered (in kSlots rotating slots) and a full
/// job keeps just its quantiles, so the benchmark's own memory stays fixed
/// whatever the throughput and peak_rss_mib measures the daemon core.
class JobLatencies {
 public:
  explicit JobLatencies(std::size_t pass_size) : pass_size_(pass_size) {}

  /// Answer number n (from 1) took `s` seconds.
  void add(std::uint64_t n, double s) {
    const std::uint64_t job = (n - 1) / pass_size_;
    Slot& slot = slots_[job % kSlots];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.job != job) {
      // A sample of a job this slot has moved past, or an unfinished job
      // being overtaken: either way that job is left out of the medians.
      if (job < slot.job && slot.job != kNone) return;
      slot.job = job;
      slot.samples.clear();
    }
    slot.samples.push_back(s);
    if (slot.samples.size() == pass_size_) {
      const Quantiles q{quantile(slot.samples, 0.5), quantile(slot.samples, 0.9)};
      slot.samples.clear();
      slot.job = kNone;
      std::lock_guard<std::mutex> done_lock(done_mu_);
      done_.push_back(q);
    }
  }
  std::size_t jobs() const { return done_.size(); }
  /// Median over full jobs of each job's p50 / p90 (seconds).
  double p50() const { return median_of(&Quantiles::p50); }
  double p90() const { return median_of(&Quantiles::p90); }

 private:
  static constexpr std::size_t kSlots = 8;
  static constexpr std::uint64_t kNone = ~0ull;
  struct Quantiles {
    double p50, p90;
  };
  struct Slot {
    std::mutex mu;
    std::uint64_t job = kNone;
    std::vector<double> samples;
  };
  double median_of(double Quantiles::*field) const {
    std::vector<double> v;
    for (const Quantiles& q : done_) v.push_back(q.*field);
    return median(v);
  }

  std::size_t pass_size_;
  std::array<Slot, kSlots> slots_;
  std::mutex done_mu_;
  std::vector<Quantiles> done_;
};

/// One timed window of the closed loop, cut into jobs of `pass_size`
/// consecutive answers. Throughput and latency are medians over the jobs, so
/// a burst of outside interference moves a few jobs, not the result.
struct Window {
  explicit Window(std::size_t pass)
      : pass_size(pass), latency(std::make_unique<JobLatencies>(pass)) {}
  std::size_t pass_size;
  std::unique_ptr<JobLatencies> latency;
  std::vector<Clock::time_point> boundaries;  ///< start, then every job end
  std::uint64_t ok = 0;
  std::uint64_t sent = 0;
  double elapsed_s = 0.0;
  std::vector<SpanLog> logs;  ///< one per client (traced windows only)

  std::vector<double> job_times() const {
    std::vector<double> v;
    for (std::size_t i = 1; i < boundaries.size(); ++i) {
      v.push_back(seconds_between(boundaries[i - 1], boundaries[i]));
    }
    return v;
  }
  double job_s() const { return median(job_times()); }
  double qps() const { return static_cast<double>(pass_size) / job_s(); }
};

/// The closed loop: `clients` threads, one connection each, sending request
/// next_seq(); `check` validates each answer (true = correct). Stops issuing
/// after `seconds`. With a mirror, each request also gets the traced probes.
template <typename MakeFn, typename CheckFn>
Window drive(const std::string& socket, unsigned clients, double seconds,
             std::size_t pass_size, std::atomic<std::uint64_t>* next_seq,
             MakeFn make, CheckFn check, Mirror* mirror, Result* r) {
  Window w(pass_size);
  std::mutex mu;  // guards w and r
  std::atomic<std::uint64_t> answered{0};
  if (mirror != nullptr) w.logs.resize(clients);
  const Clock::time_point start = Clock::now();
  w.boundaries.push_back(start);
  auto client_loop = [&](unsigned id) {
    svc::Client client;
    std::string err;
    if (!client.connect_unix(socket, &err)) {
      std::lock_guard<std::mutex> lock(mu);
      ++r->attempted;
      r->mismatch("client connect: " + err);
      return;
    }
    SpanLog* log = mirror != nullptr ? &w.logs[id] : nullptr;
    std::uint64_t ok = 0, sent = 0;
    while (seconds_since(start) < seconds) {
      const std::uint64_t seq = next_seq->fetch_add(1);
      const svc::Request req = make(seq);
      ScopedSpan root(log, "svc.request", -1, seq);
      svc::WireMap wire_req;
      {
        ScopedSpan s(log, "svc.wire_encode", root.id(), seq);
        wire_req = svc::to_wire(req);
        if (log != nullptr) (void)wire_req.to_json();
      }
      std::optional<svc::PreparedJob> prepared;
      if (log != nullptr) {
        ScopedSpan s(log, "svc.prepare", root.id(), seq);
        prepared = svc::prepare_job(req, nullptr);
      }
      svc::WireMap resp;
      const Clock::time_point t0 = Clock::now();
      bool sent_ok;
      {
        ScopedSpan s(log, "svc.round_trip", root.id(), seq);
        sent_ok = client.call(wire_req, &resp, &err);
      }
      const double latency = seconds_since(t0);
      ++sent;
      if (log != nullptr && sent_ok) {
        const std::string raw = resp.to_json();
        std::optional<svc::Response> parsed;
        {
          ScopedSpan s(log, "svc.wire_parse", root.id(), seq);
          const auto m = svc::WireMap::parse_json(raw, nullptr);
          if (m) parsed = svc::parse_response(*m, nullptr);
        }
        std::lock_guard<std::mutex> lock(mirror->mu);
        if (req.use_cache && prepared && parsed) {
          svc::Response hit;
          bool found;
          {
            ScopedSpan s(log, "svc.cache_lookup", root.id(), seq);
            found = mirror->cache.lookup(prepared->fingerprint,
                                         prepared->cache_key, &hit);
          }
          if (mirror->cold && !found) {
            ScopedSpan s(log, "svc.cache_insert", root.id(), seq);
            mirror->cache.insert(prepared->fingerprint, prepared->cache_key,
                                 *parsed);
          }
        }
        if (mirror->cold && prepared) {
          const std::uint64_t ticket = ++mirror->ticket;
          {
            ScopedSpan s(log, "svc.journal_append", root.id(), seq);
            mirror->journal.admit(ticket, prepared->fingerprint,
                                  wire_req.to_json());
          }
          {
            ScopedSpan s(log, "svc.journal_append", root.id(), seq);
            mirror->journal.start(ticket, prepared->fingerprint);
          }
          {
            ScopedSpan s(log, "svc.journal_append", root.id(), seq);
            mirror->journal.complete(ticket, prepared->fingerprint, raw);
          }
        }
      }
      std::string why = sent_ok ? "" : "transport: " + err;
      const bool correct = sent_ok && check(seq, req, resp, &why);
      if (correct) ++ok;
      const std::uint64_t n = answered.fetch_add(1) + 1;
      w.latency->add(n, latency);
      if (n % pass_size == 0 || !correct) {
        std::lock_guard<std::mutex> lock(mu);
        if (n % pass_size == 0) w.boundaries.push_back(Clock::now());
        if (!correct) r->mismatch("request " + std::to_string(seq) + ": " + why);
      }
      if (!sent_ok) break;  // the connection is unusable after a failure
    }
    std::lock_guard<std::mutex> lock(mu);
    w.ok += ok;
    w.sent += sent;
  };
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < clients; ++i) threads.emplace_back(client_loop, i);
  for (std::thread& t : threads) t.join();
  w.elapsed_s = seconds_since(start);
  r->attempted += w.sent;
  std::sort(w.boundaries.begin(), w.boundaries.end());
  return w;
}

void report_end_to_end(const Window& w, const std::vector<double>& setups,
                       Result* r) {
  r->metric("peak_rss_mib", peak_rss_mib(), "MiB");
  std::string st = "setup times (ms):";
  for (double x : setups) st += " " + std::to_string(x * 1e3).substr(0, 6);
  r->notes.push_back(st);
  r->metric("setup_s", median(setups), "s");
  r->metric("job_s", w.job_s(), "s");
  r->metric("qps", w.qps(), "1/s");
  r->metric("lat_p50_ms", w.latency->p50() * 1e3, "ms");
  r->metric("lat_p90_ms", w.latency->p90() * 1e3, "ms");
  const std::vector<double> jobs = w.job_times();
  r->notes.push_back(std::to_string(w.sent) + " requests (" +
                     std::to_string(w.ok) + " correct) in " +
                     std::to_string(w.elapsed_s) + " s; " +
                     std::to_string(jobs.size()) + " jobs of " +
                     std::to_string(w.pass_size) + ", job time quartiles " +
                     std::to_string(quantile(jobs, 0.25)) + " / " +
                     std::to_string(quantile(jobs, 0.5)) + " / " +
                     std::to_string(quantile(jobs, 0.75)) + " s");
}

/// Per request of a traced window: the client round trip and the summed
/// time of the module calls probed beside it (every span under the request
/// but the round trip itself).
struct RequestTimes {
  std::uint64_t request = 0;
  double round_trip_s = 0.0;
  double probes_s = 0.0;
};

std::vector<RequestTimes> request_times(const std::vector<SpanLog>& logs) {
  std::vector<RequestTimes> out;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::int32_t root = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.parent < 0) {
        root = static_cast<std::int32_t>(i);
        out.push_back({s.request, 0.0, 0.0});
      } else if (s.parent == root) {
        (std::string(s.name) == "svc.round_trip" ? out.back().round_trip_s
                                                 : out.back().probes_s) += d;
      }
    }
  }
  return out;
}

/// Per-layer metrics shared by both svc workloads: the traced window's
/// probes, the daemon's counters and the tracing overhead.
void report_service_layers(const Window& plain, const Window& traced,
                           const svc::Server::Stats& st, Result* r) {
  std::vector<const SpanLog*> logs;
  for (const SpanLog& l : traced.logs) logs.push_back(&l);
  auto median_us = [&](const char* name) {
    return median(self_seconds(logs, name)) * 1e6;
  };
  r->metric("svc.wire_encode_us", median_us("svc.wire_encode"), "us");
  r->metric("svc.wire_parse_us", median_us("svc.wire_parse"), "us");
  r->metric("svc.prepare_us", median_us("svc.prepare"), "us");
  r->metric("svc.cache_lookup_us", median_us("svc.cache_lookup"), "us");
  r->metric("svc.cache_insert_us", median_us("svc.cache_insert"), "us");
  r->metric("svc.journal_append_us", median_us("svc.journal_append"), "us");

  const std::uint64_t lookups = st.cache.hits + st.cache.misses;
  r->metric("svc.cache_hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(st.cache.hits) /
                               static_cast<double>(lookups),
            "1");
  r->metric("svc.cache_evictions", static_cast<double>(st.cache.evictions),
            "count");
  r->metric("svc.jobs_executed", static_cast<double>(st.jobs_executed),
            "count");
  r->metric("svc.journal_appends_per_job",
            st.jobs_executed == 0
                ? 0.0
                : static_cast<double>(st.journal_appends) /
                      static_cast<double>(st.jobs_executed),
            "1");
  r->metric("svc.overloads", static_cast<double>(st.overloads), "count");
  r->metric("svc.worker_spawned", static_cast<double>(st.supervisor.spawned),
            "count");
  r->metric("svc.worker_crashes", static_cast<double>(st.supervisor.crashes),
            "count");
  r->metric("svc.cache_reloaded", static_cast<double>(st.cache.persist_loaded),
            "count");
  r->metric("trace.job_s_delta", traced.job_s() - plain.job_s(), "s");
  r->metric("trace.qps_delta", traced.qps() - plain.qps(), "1/s");
  r->notes.push_back(
      "daemon counters: " + std::to_string(st.requests) + " requests, " +
      std::to_string(st.cache.hits) + " hits / " + std::to_string(lookups) +
      " cache lookups, " + std::to_string(st.jobs_executed) + " jobs, " +
      std::to_string(st.journal_appends) + " journal appends, " +
      std::to_string(st.cache.persist_loaded) + " entries reloaded at boot");
  r->notes.push_back("tracing overhead: qps " + std::to_string(plain.qps()) +
                     " -> " + std::to_string(traced.qps()) + ", job_s " +
                     std::to_string(plain.job_s()) + " -> " +
                     std::to_string(traced.job_s()));
}

/// Boot replay outside the daemon: Journal::replay plus the cache segment
/// reload, over a copy of `state_dir`, median of several boots (ms).
double measure_replay_ms(const std::string& state_dir,
                         const std::string& scratch) {
  std::vector<double> v;
  for (int k = 0; k < kSetupReps; ++k) {
    fs::remove_all(scratch);
    if (fs::exists(state_dir)) {
      fs::copy(state_dir, scratch, fs::copy_options::recursive);
    } else {
      fs::create_directories(scratch);
    }
    const Clock::time_point t0 = Clock::now();
    const svc::JournalReplay replay =
        svc::Journal::replay(scratch + "/journal.qjrnl");
    svc::ResultCache cache(64ull << 20);
    std::string err;
    cache.enable_persistence(scratch + "/cache.qcseg", &err);
    v.push_back(seconds_since(t0) * 1e3);
  }
  fs::remove_all(scratch);
  return median(v);
}

/// Limits the calling thread, and every thread and process it starts
/// afterwards, to the first two CPUs it may run on.
void restrict_to_two_cpus(Result* r) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  int picked = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && picked < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &two);
      ++picked;
    }
  }
  if (picked == 2 && sched_setaffinity(0, sizeof(two), &two) == 0) return;
  r->notes.push_back("could not restrict the run to two CPUs");
}

void write_logs(const Options& opt, const Window& traced,
                const std::vector<const SpanLog*>& extra) {
  std::vector<const SpanLog*> logs;
  for (const SpanLog& l : traced.logs) logs.push_back(&l);
  logs.insert(logs.end(), extra.begin(), extra.end());
  write_trace(opt.trace_path, logs, kMaxTraceSpans);
}

}  // namespace

// ==================================================================== cold

Result run_svc_cold(const Options& opt) {
  Result r;
  const ColdMix mix{opt.seed};
  // The traced run's one-worker Supervisor forks now, while this process
  // has a single thread: a worker forked after the global executor started
  // would inherit an executor whose threads it does not have.
  std::unique_ptr<svc::Supervisor> sup;
  if (opt.trace) {
    svc::SupervisorConfig scfg;
    scfg.workers = 1;
    sup = std::make_unique<svc::Supervisor>(scfg);
    std::string err;
    if (!sup->start(&err)) throw std::runtime_error("supervisor: " + err);
  }

  // Direct-library references for the deterministic classes.
  std::string reference[kClassCount];
  SearchOutcome mc4_direct = mc_mutex(4);
  {
    SearchOutcome mc3 = mc_mutex(3);
    if (opt.tamper) ++mc3.stored;
    reference[kMc3] = svc::to_wire(response_of(mc3)).to_json();
    reference[kMc4Ckpt] = svc::to_wire(response_of(mc4_direct)).to_json();
    reference[kGame1] = svc::to_wire(response_of(game_reach(1))).to_json();
    reference[kCora2] = svc::to_wire(response_of(cora_mincost(2))).to_json();
  }
  std::mutex sampled_mu;
  std::vector<std::pair<std::uint64_t, std::string>> smc_sampled;

  const svc::ServerConfig cfg = production_config(opt.run_dir);
  std::vector<double> setups;
  std::unique_ptr<svc::Server> server;
  auto boot = [&] {
    server.reset();
    fs::remove_all(cfg.state_dir);
    fs::remove_all(cfg.ckpt_dir);
    const Clock::time_point t0 = Clock::now();
    server = start_server(cfg);
    setups.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kSetupReps; ++k) boot();

  auto check = [&](std::uint64_t seq, const svc::Request& req,
                   const svc::WireMap& resp, std::string* why) {
    const Cls c = mix.cls(seq);
    const std::string json = resp.to_json();
    if (c != kSmc) {
      if (json == reference[c]) return true;
      *why = std::string(kClassNames[c]) + " answered " + json +
             ", reference " + reference[c];
      return false;
    }
    const auto m = svc::WireMap::parse_json(json, nullptr);
    const auto a = m ? svc::parse_response(*m, nullptr) : std::nullopt;
    const bool ok =
        a && a->status == svc::Status::kOk && !a->cached &&
        a->verdict == q::common::Verdict::kHolds &&
        a->stop == q::common::StopReason::kCompleted &&
        a->explored == kSmcRuns && a->transitions == kSmcRuns &&
        a->has_value &&
        a->value == static_cast<double>(a->extra) / static_cast<double>(kSmcRuns);
    if (!ok) {
      *why = "smc answer " + json;
      return false;
    }
    std::lock_guard<std::mutex> lock(sampled_mu);
    if (smc_sampled.size() < 16) smc_sampled.push_back({req.seed, json});
    return true;
  };
  auto make = [&](std::uint64_t seq) { return mix.request(seq); };

  std::atomic<std::uint64_t> seq{0};
  drive(cfg.socket_path, 4, kWarmupSeconds, kColdPass, &seq, make, check,
        nullptr, &r);
  // A traced run splits its time between an untraced and a traced window
  // of equal length; their difference is the tracing overhead.
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Window plain = drive(cfg.socket_path, 4, window, kColdPass, &seq,
                             make, check, nullptr, &r);
  std::optional<Window> traced;
  Mirror mirror;
  if (opt.trace) {
    mirror.cold = true;
    const std::string mdir = opt.run_dir + "/mirror";
    fs::create_directories(mdir);
    std::string err;
    mirror.cache.enable_persistence(mdir + "/cache.qcseg", &err);
    mirror.journal.open(mdir + "/journal.qjrnl",
                        svc::Journal::replay(mdir + "/journal.qjrnl"), &err);
    traced = drive(cfg.socket_path, 4, window, kColdPass, &seq, make,
                   check, &mirror, &r);
  }
  const svc::Server::Stats st = server->stats();
  if (!opt.trace) {
    // More set-ups after the window, so set-up is sampled at both ends.
    for (int k = 0; k < kSetupReps; ++k) boot();
    report_end_to_end(plain, setups, &r);
  }
  server.reset();  // stops the daemon and reaps its workers
  if (st.cache.hits != 0) {
    r.mismatch(std::to_string(st.cache.hits) + " cache hits in an all-miss mix");
  }

  // Sampled SMC answers against direct library runs with the same seed.
  for (const auto& [smc_seed, json] : smc_sampled) {
    ++r.attempted;
    const std::string direct =
        svc::to_wire(response_of(smc_cross(3, kSmcRuns, smc_seed, nullptr)))
            .to_json();
    if (direct != json) r.mismatch("smc seed " + std::to_string(smc_seed) +
                                   " answered " + json + ", direct " + direct);
  }
  if (!opt.trace) return r;

  // ---- Stage attribution on a quiet process: in-process engine run, the
  // same job through a one-worker Supervisor, and the checkpointed job.
  SpanLog attr;
  const std::string ckdir = opt.run_dir + "/attr-ckpt";
  fs::create_directories(ckdir);
  std::vector<double> engine_s[kClassCount], hop_s[kClassCount], sink_s, rps,
      par, steps;
  const std::uint64_t base = 1ull << 40;  // request ids past the load's
  for (std::uint64_t i = 0; i < 10 * kAttributionDecks; ++i) {
    const std::uint64_t id = base + i;
    const Cls c = mix.cls(id);
    const svc::Request req = mix.request(id);
    const auto prepared = svc::prepare_job(req, nullptr);
    const std::string token = svc::fingerprint_token(prepared->fingerprint);
    ScopedSpan root(&attr, "attr.request", -1, id);
    q::svc::JobResult jr;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(&attr, "svc.engine", root.id(), id);
      jr = prepared->run(q::common::Budget{}, q::ckpt::Options{}, nullptr);
    }
    const double engine = seconds_since(t0);
    engine_s[c].push_back(engine);
    const std::string local =
        svc::to_wire(svc::response_from_result(jr, token)).to_json();
    ++r.attempted;
    if (c != kSmc && local != reference[c]) {
      r.mismatch(std::string(kClassNames[c]) + " in-process answer " + local);
    }
    const Clock::time_point t1 = Clock::now();
    svc::Response remote;
    {
      ScopedSpan s(&attr, "svc.supervisor_execute", root.id(), id);
      remote = sup->execute(req, prepared->fingerprint, q::common::Budget{},
                           q::ckpt::Options{});
    }
    hop_s[c].push_back(seconds_since(t1) - engine);
    if (svc::to_wire(remote).to_json() != local) {
      r.mismatch(std::string(kClassNames[c]) + " worker answer differs: " +
                 svc::to_wire(remote).to_json());
    }
    if (c == kMc4Ckpt) {
      q::ckpt::Options ck;
      ck.path = ckdir + "/job-mc-" + token + ".qckpt";
      ck.interval = req.ckpt_interval;
      ck.resume = false;
      const Clock::time_point t2 = Clock::now();
      {
        ScopedSpan s(&attr, "ckpt.checkpointed_run", root.id(), id);
        jr = prepared->run(q::common::Budget{}, ck, nullptr);
      }
      sink_s.push_back(seconds_since(t2) - engine);
      q::ckpt::remove_chain(ck.path);
      if (svc::to_wire(svc::response_from_result(jr, token)).to_json() !=
          local) {
        r.mismatch("checkpointed train-gate-4 answer differs");
      }
    }
    if (c == kSmc) {
      q::exec::RunTelemetry tel;
      smc_cross(3, kSmcRuns, req.seed, &tel, {&attr, root.id(), id});
      rps.push_back(tel.runs_per_second());
      par.push_back(tel.parallelism());
      steps.push_back(static_cast<double>(tel.sim_steps()));
    }
  }
  sup->shutdown();

  // Every stage is a per-class median; the mix is weighted by each class's
  // share of the deck, so the stages add up per request of the mix.
  double share[kClassCount] = {};
  for (Cls c : kDeck) share[c] += 0.1;
  std::vector<double> rtt[kClassCount], probes[kClassCount];
  for (const RequestTimes& t : request_times(traced->logs)) {
    rtt[mix.cls(t.request)].push_back(t.round_trip_s);
    probes[mix.cls(t.request)].push_back(t.probes_s);
  }
  const double sink = median(sink_s);
  double engine = 0.0, hop = 0.0, unattributed = 0.0;
  for (int c = 0; c < kClassCount; ++c) {
    const double e = median(engine_s[c]), h = median(hop_s[c]);
    engine += share[c] * e;
    hop += share[c] * h;
    unattributed += share[c] * (median(rtt[c]) - e - h - median(probes[c]) -
                                (c == kMc4Ckpt ? sink : 0.0));
  }
  r.metric("mc.call_s",
           (share[kMc3] * median(engine_s[kMc3]) +
            share[kMc4Ckpt] * median(engine_s[kMc4Ckpt])) /
               (share[kMc3] + share[kMc4Ckpt]),
           "s");
  r.metric("smc.call_s", median(engine_s[kSmc]), "s");
  r.metric("game.call_s", median(engine_s[kGame1]), "s");
  r.metric("cora.call_s", median(engine_s[kCora2]), "s");
  r.metric("exec.runs_per_s", median(rps), "1/s");
  r.metric("exec.parallelism", median(par), "1");
  r.metric("exec.sim_steps", median(steps), "count");
  r.metric("svc.engine_ms", engine * 1e3, "ms");
  r.metric("svc.worker_hop_ms", hop * 1e3, "ms");
  r.metric("ckpt.sink_ms", sink * 1e3, "ms");
  // What remains of the client round trip: queue wait, socket hops, session
  // hand-off and the daemon's own copy of the wire stages.
  r.metric("svc.unattributed_ms", unattributed * 1e3, "ms");
  report_service_layers(plain, *traced, st, &r);
  r.metric("svc.replay_ms",
           measure_replay_ms(opt.run_dir + "/fresh-state",
                             opt.run_dir + "/replay-copy"),
           "ms");

  SpanLog replay_log;
  const ReplayOutcome rep = replay_mc_mutex(4, &replay_log);
  report_replay(rep, mc4_direct, &r);
  write_logs(opt, *traced, {&attr, &replay_log});
  return r;
}

// ==================================================================== hit

Result run_svc_hit(const Options& opt) {
  Result r;
  // The working set: fresh-seeded SMC keys plus the finite keys of the
  // other engines.
  std::vector<svc::Request> keys;
  for (int n = 2; n <= 4; ++n) {
    for (const char* query : {"mutex", "reach-cross"}) {
      svc::Request k;
      k.engine = "mc";
      k.model = "train-gate-" + std::to_string(n);
      k.query = query;
      keys.push_back(k);
    }
    svc::Request c;
    c.engine = "cora";
    c.model = "train-gate-" + std::to_string(n);
    c.query = "mincost-cross";
    keys.push_back(c);
  }
  for (int n = 1; n <= 2; ++n) {
    svc::Request g;
    g.engine = "game";
    g.model = "train-game-" + std::to_string(n);
    g.query = "reach-cross";
    keys.push_back(g);
  }
  for (std::size_t i = 0; i < kFillSmcKeys; ++i) {
    keys.push_back(make_request(kSmc, splitmix64(splitmix64(opt.seed) + i)));
  }

  // 1. A first daemon fills the working set (4 clients, each key once).
  const svc::ServerConfig cfg = production_config(opt.run_dir);
  std::vector<std::vector<std::pair<std::string, std::string>>> expected(
      keys.size());
  {
    auto server = start_server(cfg);
    Result fill;
    std::atomic<std::uint64_t> next{0};
    std::vector<std::thread> threads;
    std::mutex mu;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        svc::Client client;
        std::string err;
        if (!client.connect_unix(cfg.socket_path, &err)) {
          std::lock_guard<std::mutex> lock(mu);
          fill.mismatch("fill connect: " + err);
          return;
        }
        for (std::uint64_t i; (i = next.fetch_add(1)) < keys.size();) {
          svc::WireMap resp;
          const bool ok = client.call(svc::to_wire(keys[i]), &resp, &err);
          const std::string* status = resp.get("status");
          const std::string* cached = resp.get("cached");
          std::lock_guard<std::mutex> lock(mu);
          if (!ok || status == nullptr || *status != "ok" || cached == nullptr ||
              *cached != "0") {
            fill.mismatch("fill key " + std::to_string(i) + ": " +
                          (ok ? resp.to_json() : err));
            if (!ok) return;
            continue;
          }
          expected[i] = answer_fields(resp);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (!fill.correct) {
      throw std::runtime_error("fill failed: " + fill.notes.front());
    }
  }  // 2. ... and stops.
  const std::string pristine = opt.run_dir + "/state-filled";
  fs::copy(cfg.state_dir, pristine, fs::copy_options::recursive);

  // From here on every thread of this process (the restarted daemon, its
  // sessions, the two clients) runs on two CPUs, one per client and session
  // pair. Spread over four vCPUs, each hit's round trip instead waits on
  // cross-vCPU wake-ups, and the run-to-run result flipped between modes
  // (median round trip 13, 30 or 37 us) that said nothing about the hit path.
  restrict_to_two_cpus(&r);
  // 3. Set-up: a second daemon boots over the filled state dir (a fresh copy
  // for every repetition, so each boot replays the same files).
  std::vector<double> setups;
  std::unique_ptr<svc::Server> server;
  auto boot = [&] {
    server.reset();
    fs::remove_all(cfg.state_dir);
    fs::remove_all(cfg.ckpt_dir);
    fs::copy(pristine, cfg.state_dir, fs::copy_options::recursive);
    const Clock::time_point t0 = Clock::now();
    server = start_server(cfg);
    setups.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kSetupReps; ++k) boot();

  const std::uint64_t pick_seed = splitmix64(opt.seed ^ 0x68697473ull);
  auto pick = [&](std::uint64_t seq) {
    return static_cast<std::size_t>(splitmix64(pick_seed + seq) % keys.size());
  };
  auto make = [&](std::uint64_t seq) { return keys[pick(seq)]; };
  if (opt.tamper) expected[pick(0)].back().second += "0";
  auto check = [&](std::uint64_t seq, const svc::Request&,
                   const svc::WireMap& resp, std::string* why) {
    const std::string* cached = resp.get("cached");
    if (cached != nullptr && *cached == "1" &&
        answer_fields(resp) == expected[pick(seq)]) {
      return true;
    }
    *why = "hit on key " + std::to_string(pick(seq)) + " answered " +
           resp.to_json();
    return false;
  };

  std::atomic<std::uint64_t> seq{0};
  drive(cfg.socket_path, 2, kWarmupSeconds, kHitPass, &seq, make, check,
        nullptr, &r);
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Window plain = drive(cfg.socket_path, 2, window, kHitPass, &seq,
                             make, check, nullptr, &r);
  std::optional<Window> traced;
  Mirror mirror;
  if (opt.trace) {
    // The mirror cache holds the same answers the daemon reloaded.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto prepared = svc::prepare_job(keys[i], nullptr);
      svc::WireMap m;
      for (const auto& [k, v] : expected[i]) m.set(k, v);
      mirror.cache.insert(prepared->fingerprint, prepared->cache_key,
                          *svc::parse_response(m, nullptr));
    }
    traced = drive(cfg.socket_path, 2, window, kHitPass, &seq, make,
                   check, &mirror, &r);
  }
  const svc::Server::Stats st = server->stats();
  if (!opt.trace) {
    // More restarts after the window, so set-up is sampled at both ends.
    for (int k = 0; k < kSetupReps; ++k) boot();
    report_end_to_end(plain, setups, &r);
  }
  server.reset();
  if (st.jobs_executed != 0) {
    r.mismatch(std::to_string(st.jobs_executed) +
               " jobs executed after the restart (all requests should hit)");
  }
  if (st.cache.persist_loaded != keys.size()) {
    r.mismatch("restart reloaded " + std::to_string(st.cache.persist_loaded) +
               " of " + std::to_string(keys.size()) + " cache entries");
  }
  if (!opt.trace) return r;

  std::vector<double> rtt, probes;
  for (const RequestTimes& t : request_times(traced->logs)) {
    rtt.push_back(t.round_trip_s);
    probes.push_back(t.probes_s);
  }
  r.metric("svc.unattributed_ms", (median(rtt) - median(probes)) * 1e3, "ms");
  report_service_layers(plain, *traced, st, &r);
  r.metric("svc.replay_ms",
           measure_replay_ms(pristine, opt.run_dir + "/replay-copy"), "ms");
  write_logs(opt, *traced, {});
  return r;
}

}  // namespace perfbench
