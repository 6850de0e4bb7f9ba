// Workload paper-batch: one caller thread runs the paper experiments through
// the library, back to back, for the whole window (closed loop, 1 client):
//
//   E1 mc   train-gate-5 mutex
//   E8 cora train-gate-4 mincost
//   E2 game train-game-2 reach
//   E3 smc  train-gate-4 pr-cross, 20k runs on the global executor
//   E4 BRP mcpta: both digital MDPs, then P1, Dmax and Emax
//
// One pass over the five is one job. Every call builds its model inside, so
// job wall time includes model construction. The seed feeds the SMC seed.
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "engines.h"
#include "exec/executor.h"
#include "models/brp.h"
#include "models/train_game.h"
#include "models/train_gate.h"

namespace perfbench {

namespace q = quanta;

namespace {

constexpr std::uint64_t kSmcRuns = 20000;

// Expected answers. E1's counts are the zone-graph sizes EXPERIMENTS.md
// reports; E4's values are the paper's Table I (mcpta column) and the
// closed form; the others pin the current engines' deterministic results.
struct Expected {
  std::uint64_t e1_stored = 67486, e1_explored = 67396, e1_transitions = 125420;
  std::int64_t e8_cost = 10;
  std::uint64_t e8_stored = 69946, e8_explored = 53631, e8_transitions = 96186;
  std::uint64_t e2_stored = 14173, e2_explored = 14173, e2_transitions = 39666;
  std::int64_t e2_winning = 10722;
  /// Within the 100 time units of pr-cross train 0 always crosses.
  double e3_p = 1.0;
  double e3_tolerance = 0.01;
  int e4_mdp_states = 1335;
  double e4_p1 = 4.2333e-4, e4_dmax = 0.999577, e4_emax = 33.467;
};

struct Pass {
  SearchOutcome e1, e8, e2;
  q::smc::Estimate e3;
  BrpValues e4;
  q::exec::RunTelemetry telemetry;
  double call_s[5] = {0, 0, 0, 0, 0};
  double pass_s = 0.0;
};

Pass run_pass(std::uint64_t smc_seed, SpanLog* log, std::uint64_t index) {
  Pass p;
  const Clock::time_point start = Clock::now();
  ScopedSpan root(log, "batch.pass", -1, index);
  Clock::time_point t = Clock::now();
  auto lap = [&](int k) {
    const Clock::time_point now = Clock::now();
    p.call_s[k] = seconds_between(t, now);
    t = now;
  };
  {
    ScopedSpan s(log, "exp.E1", root.id(), index);
    p.e1 = mc_mutex(5, {log, s.id(), index});
  }
  lap(0);
  {
    ScopedSpan s(log, "exp.E8", root.id(), index);
    p.e8 = cora_mincost(4, {log, s.id(), index});
  }
  lap(1);
  {
    ScopedSpan s(log, "exp.E2", root.id(), index);
    p.e2 = game_reach(2, {log, s.id(), index});
  }
  lap(2);
  {
    ScopedSpan s(log, "exp.E3", root.id(), index);
    p.e3 = smc_cross(4, kSmcRuns, smc_seed, log ? &p.telemetry : nullptr,
                     {log, s.id(), index});
  }
  lap(3);
  {
    ScopedSpan s(log, "exp.E4", root.id(), index);
    p.e4 = brp_mcpta({log, s.id(), index});
  }
  lap(4);
  p.pass_s = seconds_since(start);
  return p;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

/// Checks one pass; every wrong experiment counts as one failed call.
void check_pass(const Pass& p, const Expected& x, double first_p_hat,
                Result* r) {
  using q::common::StopReason;
  using q::common::Verdict;
  if (p.e1.verdict != Verdict::kHolds || p.e1.stored != x.e1_stored ||
      p.e1.explored != x.e1_explored || p.e1.transitions != x.e1_transitions) {
    r->mismatch("E1 train-gate-5 mutex: verdict " +
                std::string(q::common::to_string(p.e1.verdict)) + ", counts " +
                std::to_string(p.e1.stored) + "/" +
                std::to_string(p.e1.explored) + "/" +
                std::to_string(p.e1.transitions));
  }
  if (p.e8.verdict != Verdict::kHolds || p.e8.extra != x.e8_cost ||
      p.e8.stored != x.e8_stored || p.e8.explored != x.e8_explored ||
      p.e8.transitions != x.e8_transitions) {
    r->mismatch("E8 cora train-gate-4: cost " + std::to_string(p.e8.extra) +
                ", counts " + std::to_string(p.e8.stored) + "/" +
                std::to_string(p.e8.explored) + "/" +
                std::to_string(p.e8.transitions));
  }
  if (p.e2.verdict != Verdict::kHolds || p.e2.stored != x.e2_stored ||
      p.e2.explored != x.e2_explored || p.e2.transitions != x.e2_transitions ||
      p.e2.extra != x.e2_winning) {
    r->mismatch("E2 train-game-2 reach: winning " +
                std::to_string(p.e2.extra) + ", counts " +
                std::to_string(p.e2.stored) + "/" +
                std::to_string(p.e2.explored) + "/" +
                std::to_string(p.e2.transitions));
  }
  // Run i of an estimate is a pure function of (seed, i), so every pass of
  // one run must reproduce the first pass bit for bit.
  if (p.e3.verdict != Verdict::kHolds || p.e3.stop != StopReason::kCompleted ||
      p.e3.completed != kSmcRuns ||
      !near(p.e3.p_hat, x.e3_p, x.e3_tolerance) || p.e3.p_hat != first_p_hat) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "E3 smc train-gate-4: p_hat %.17g over %zu runs (first pass "
                  "%.17g, reference %.6f)",
                  p.e3.p_hat, p.e3.completed, first_p_hat, x.e3_p);
    r->mismatch(buf);
  }
  if (!p.e4.converged || p.e4.mdp_states != x.e4_mdp_states ||
      !near(p.e4.p1, p.e4.p1_analytic, 1e-8) || !near(p.e4.p1, x.e4_p1, 5e-8) ||
      !near(p.e4.dmax, x.e4_dmax, 5e-7) || !near(p.e4.emax, x.e4_emax, 5e-4)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "E4 BRP mcpta: %d MDP states, P1 %.6e (analytic %.6e), "
                  "Dmax %.7f, Emax %.5f",
                  p.e4.mdp_states, p.e4.p1, p.e4.p1_analytic, p.e4.dmax,
                  p.e4.emax);
    r->mismatch(buf);
  }
}

struct Window {
  std::vector<Pass> passes;
  double elapsed_s = 0.0;

  /// Pass times: the caller asks for the batch and waits for all of it, so
  /// one pass is one request, and its time is that request's latency.
  double pass_quantile(double q) const {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.pass_s);
    return quantile(v, q);
  }
  /// Mean pass time. Pass times form two modes about 30% apart (the host
  /// runs this one busy vCPU fast or slow for seconds at a time); the
  /// median jumps between the modes as their mix shifts, the mean moves
  /// with the mix.
  double job_s() const {
    double sum = 0.0;
    for (const Pass& p : passes) sum += p.pass_s;
    return sum / static_cast<double>(passes.size());
  }
  double qps() const { return 1.0 / job_s(); }
};

/// Set-up: build the five models and start the global executor (only the
/// first call starts its threads). Returns the seconds it took.
double set_up() {
  const Clock::time_point t0 = Clock::now();
  const auto tg5 = q::models::make_train_gate(5);
  const auto tg4 = q::models::make_train_gate(4);
  const auto game2 = q::models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  const auto brp = q::models::make_brp();
  q::models::BrpParams gp;
  gp.global_clock = true;
  const auto brpg = q::models::make_brp(gp);
  q::exec::global_executor();
  return seconds_since(t0);
}

/// Passes back to back for `seconds`. With `setups`, one set-up is timed
/// before every pass (outside the pass), so the reported median samples
/// the whole window rather than one moment of it.
Window run_window(double seconds, std::uint64_t smc_seed, SpanLog* log,
                  const Expected& x, Result* r,
                  std::vector<double>* setups = nullptr) {
  Window w;
  const Clock::time_point start = Clock::now();
  do {
    if (setups != nullptr) setups->push_back(set_up());
    w.passes.push_back(run_pass(smc_seed, log, w.passes.size()));
    r->attempted += 5;
    check_pass(w.passes.back(), x, w.passes.front().e3.p_hat, r);
  } while (seconds_since(start) < seconds);
  w.elapsed_s = seconds_since(start);
  return w;
}

}  // namespace

Result run_paper_batch(const Options& opt) {
  Result r;
  Expected x;
  if (opt.tamper) ++x.e1_stored;
  const std::uint64_t smc_seed = splitmix64(opt.seed);

  // The global executor gets one worker (QUANTA_JOBS=1), read when it
  // starts in the first set-up. With four, E3 took 0.10 s or 0.40 s
  // depending on whether the guest scheduler spread the freshly woken
  // workers over the vCPUs or stacked them on one (each worker's CPU time
  // was 0.12 s either way), and that placement flipped job_s by about 25%
  // from run to run.
  ::setenv("QUANTA_JOBS", "1", 1);
  std::vector<double> setups = {set_up()};
  // One untimed pass first (checked like the others): first-touch page
  // faults and the executor's first job are not part of the window.
  run_window(0.0, smc_seed, nullptr, x, &r);
  // A traced run splits its time between an untraced and a traced window
  // of equal length; their difference is the tracing overhead.
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Window plain = run_window(window, smc_seed, nullptr, x, &r, &setups);
  static const char* const kNames[] = {"E1", "E8", "E2", "E3", "E4"};
  for (int k = 0; k < 5; ++k) {
    std::vector<double> v;
    for (const Pass& p : plain.passes) v.push_back(p.call_s[k]);
    r.notes.push_back(std::string(kNames[k]) + " median " +
                      std::to_string(median(v)) + " s");
  }
  r.notes.push_back("set-up quartiles " + std::to_string(quantile(setups, 0.25) * 1e6) +
                    " / " + std::to_string(quantile(setups, 0.5) * 1e6) + " / " +
                    std::to_string(quantile(setups, 0.75) * 1e6) + " us, first " +
                    std::to_string(setups.front() * 1e6) + " us");
  r.notes.push_back(std::to_string(plain.passes.size()) + " passes in " +
                    std::to_string(plain.elapsed_s) + " s");
  if (!opt.trace) {
    r.metric("setup_s", median(setups), "s");
    r.metric("job_s", plain.job_s(), "s");
    r.metric("qps", plain.qps(), "1/s");
    r.metric("lat_p50_ms", plain.pass_quantile(0.5) * 1e3, "ms");
    r.metric("lat_p90_ms", plain.pass_quantile(0.9) * 1e3, "ms");
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return r;
  }

  // Traced run: the same window again with spans on, then the E1 replay.
  SpanLog log;
  const Window traced = run_window(window, smc_seed, &log, x, &r);
  const std::vector<const SpanLog*> logs = {&log};
  r.metric("mc.call_s", median(self_seconds(logs, "mc.call")), "s");
  r.metric("cora.call_s", median(self_seconds(logs, "cora.call")), "s");
  r.metric("game.call_s", median(self_seconds(logs, "game.call")), "s");
  r.metric("smc.call_s", median(self_seconds(logs, "smc.call")), "s");
  r.metric("pta.build_s", median(self_seconds(logs, "pta.build")), "s");
  r.metric("mdp.solve_s", median(self_seconds(logs, "mdp.solve")), "s");
  std::vector<double> rps, par, steps;
  for (const Pass& p : traced.passes) {
    rps.push_back(p.telemetry.runs_per_second());
    par.push_back(p.telemetry.parallelism());
    steps.push_back(static_cast<double>(p.telemetry.sim_steps()));
  }
  r.metric("exec.runs_per_s", median(rps), "1/s");
  r.metric("exec.parallelism", median(par), "1");
  r.metric("exec.sim_steps", median(steps), "count");
  r.metric("trace.job_s_delta", traced.job_s() - plain.job_s(), "s");
  r.metric("trace.qps_delta", traced.qps() - plain.qps(), "1/s");
  r.notes.push_back("tracing overhead: job_s " + std::to_string(plain.job_s()) +
                    " -> " + std::to_string(traced.job_s()) + " s, qps " +
                    std::to_string(plain.qps()) + " -> " +
                    std::to_string(traced.qps()) + " over " +
                    std::to_string(traced.passes.size()) + " traced passes");

  SpanLog replay_log;
  const ReplayOutcome rep = replay_mc_mutex(5, &replay_log);
  report_replay(rep, traced.passes.front().e1, &r);
  write_trace(opt.trace_path, {&log, &replay_log}, 50000);
  return r;
}

}  // namespace perfbench
