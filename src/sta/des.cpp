#include "sta/des.h"

#include <algorithm>
#include <cmath>

namespace quanta::sta {

namespace {
constexpr double kTimeEps = 1e-9;
/// Discrete steps per run before it stops where it is.
constexpr std::size_t kMaxSteps = 1'000'000;
/// Model-time cap: an ALAP scheduler facing an unbounded window (no
/// invariant, no upper guard) would otherwise delay by infinity.
constexpr double kTimeLimit = 1e18;
}  // namespace

const char* to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kAsap:
      return "ASAP";
    case SchedulerPolicy::kAlap:
      return "ALAP";
    case SchedulerPolicy::kUniformRandom:
      return "uniform";
  }
  return "?";
}

DesSimulator::DesSimulator(const ta::System& sys, std::uint64_t seed,
                           const DesOptions& opts)
    : sem_(sys), opts_(opts), rng_(seed), initial_(sem_.initial()) {}

void DesSimulator::move_windows(const ta::ConcreteState& s) {
  const double global_inv = sem_.invariant_max_delay(s);
  sem_.symbolic().enabled_moves(s.locs, s.vars, moves_);
  windows_.clear();
  for (std::size_t i = 0; i < moves_.size(); ++i) {
    double lo = 0.0;
    double hi = global_inv;
    bool feasible = true;
    for (const auto& [p, e] : moves_[i]) {
      const ta::Edge& edge =
          sem_.system().process(p).edges.at(static_cast<std::size_t>(e));
      double d = sem_.min_enabling_delay(edge, s);
      if (d >= ta::ConcreteSemantics::kInfDelay) {
        feasible = false;
        break;
      }
      lo = std::max(lo, d);
      hi = std::min(hi, sem_.max_enabling_delay(edge, s));
    }
    if (!feasible || lo > hi + kTimeEps) continue;
    windows_.push_back(MoveWindow{lo, std::min(hi, global_inv)});
  }
}

bool DesSimulator::fire(ta::ConcreteState& s) {
  sem_.enabled_moves_now(s, moves_);
  if (moves_.empty()) return false;
  sem_.execute_sampled(s,
                       moves_[static_cast<std::size_t>(rng_.uniform_int(
                           0, static_cast<int>(moves_.size()) - 1))],
                       rng_);
  return true;
}

DesRun DesSimulator::run(const DesPredicate& terminal,
                         const std::vector<DesPredicate>& watch,
                         const std::vector<DesPredicate>& monitors) {
  ta::ConcreteState& s = state_;
  s = initial_;
  DesRun result;
  result.first_hit.assign(watch.size(), -1.0);
  result.monitor_ok.assign(monitors.size(), true);
  double t = 0.0;

  auto observe = [&]() {
    for (std::size_t w = 0; w < watch.size(); ++w) {
      if (result.first_hit[w] < 0.0 && watch[w](s)) result.first_hit[w] = t;
    }
    for (std::size_t mo = 0; mo < monitors.size(); ++mo) {
      if (result.monitor_ok[mo] && !monitors[mo](s)) result.monitor_ok[mo] = false;
    }
  };

  for (std::size_t step = 0; step < kMaxSteps; ++step) {
    observe();
    if (terminal && terminal(s)) {
      result.terminated = true;
      result.end_time = t;
      return result;
    }

    if (sem_.symbolic().delay_forbidden(s.locs, s.vars)) {
      if (!fire(s)) break;  // timelock
      continue;
    }

    move_windows(s);
    if (windows_.empty()) break;  // nothing can ever happen: time diverges

    double d = 0.0;
    switch (opts_.policy) {
      case SchedulerPolicy::kAsap: {
        d = windows_.front().lo;
        for (const auto& w : windows_) d = std::min(d, w.lo);
        break;
      }
      case SchedulerPolicy::kAlap: {
        d = 0.0;
        for (const auto& w : windows_) d = std::max(d, w.hi);
        break;
      }
      case SchedulerPolicy::kUniformRandom: {
        const auto& w = windows_[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<int>(windows_.size()) - 1))];
        d = rng_.uniform(w.lo, w.hi);
        break;
      }
    }
    d = std::max(0.0, d);
    if (t + d > kTimeLimit) {
      result.end_time = kTimeLimit;
      return result;
    }
    sem_.delay(s, d);
    t += d;

    if (!fire(s)) break;  // numeric corner: treat as stalled
  }
  observe();
  result.end_time = t;
  return result;
}

DesEnsemble run_ensemble(const ta::System& sys, std::size_t runs,
                         std::uint64_t seed, const DesOptions& opts,
                         const DesPredicate& terminal,
                         const std::vector<DesPredicate>& watch,
                         const std::vector<DesPredicate>& monitors) {
  DesEnsemble ens;
  ens.runs = runs;
  ens.watch_hits.assign(watch.size(), 0);
  ens.monitor_violations.assign(monitors.size(), 0);
  DesSimulator sim(sys, seed, opts);
  for (std::size_t r = 0; r < runs; ++r) {
    DesRun run = sim.run(terminal, watch, monitors);
    if (run.terminated) {
      ++ens.terminated;
      ens.end_time.add(run.end_time);
    }
    for (std::size_t w = 0; w < watch.size(); ++w) {
      if (run.first_hit[w] >= 0.0) ++ens.watch_hits[w];
    }
    for (std::size_t mo = 0; mo < monitors.size(); ++mo) {
      if (!run.monitor_ok[mo]) ++ens.monitor_violations[mo];
    }
  }
  return ens;
}

}  // namespace quanta::sta
