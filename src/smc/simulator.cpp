#include "smc/simulator.h"

#include <algorithm>
#include <stdexcept>

#include "common/error.h"
#include "common/fault.h"

namespace quanta::smc {

using ta::ConcreteState;
using ta::Edge;
using ta::Process;
using ta::SyncKind;

namespace {
/// Discrete events per run before it is abandoned as stuck (unsatisfied).
constexpr std::size_t kMaxSteps = 1'000'000;
}  // namespace

Simulator::Simulator(const ta::System& sys, std::uint64_t seed)
    : sem_(sys),
      rng_(seed),
      initial_(sem_.initial()),
      max_delay_(static_cast<std::size_t>(sys.process_count())) {}

bool Simulator::compute_bid(const ConcreteState& s, int process, double d_max,
                            Bid* bid) {
  const Process& proc = sem_.system().process(process);
  const int loc = s.locs[static_cast<std::size_t>(process)];

  // Earliest delay after which some internal/output edge becomes enabled.
  double d_min = ta::ConcreteSemantics::kInfDelay;
  for (int ei : sem_.symbolic().edges_from(process, loc)) {
    const Edge& e = proc.edges[static_cast<std::size_t>(ei)];
    if (e.sync == SyncKind::kReceive) continue;
    if (e.data_guard && !e.data_guard(s.vars)) continue;
    d_min = std::min(d_min, sem_.min_enabling_delay(e, s));
  }
  if (d_min > d_max) return false;  // passive: nothing enabled in the window

  double delay;
  if (d_max < ta::ConcreteSemantics::kInfDelay) {
    delay = rng_.uniform(d_min, d_max);
  } else {
    double rate = proc.locations[static_cast<std::size_t>(loc)].exit_rate;
    delay = d_min + rng_.exponential(rate);
  }
  bid->delay = delay;
  bid->process = process;
  return true;
}

bool Simulator::fire_process(ConcreteState& s, int process) {
  const ta::System& sys = sem_.system();
  const ta::SymbolicSemantics& sym = sem_.symbolic();
  const Process& proc = sys.process(process);

  // Collect this process's executable internal/output edges right now, in
  // edge order, each with its variants (one per receiver choice). An
  // output is executable only if at least one receiver is available (the
  // paper's models are input-enabled along reachable paths; see DESIGN.md).
  moves_.clear();
  choice_ends_.clear();
  // Appends the first (broadcast) or every (binary) enabled receiver of
  // channel ch in the other processes, by process and edge index.
  auto receivers = [&](int ch, auto&& on_receiver) {
    for (int q = 0; q < sys.process_count(); ++q) {
      if (q == process) continue;
      const Process& qproc = sys.process(q);
      for (int fi : sym.edges_from(q, s.locs[static_cast<std::size_t>(q)])) {
        const Edge& f = qproc.edges[static_cast<std::size_t>(fi)];
        if (f.sync != SyncKind::kReceive) continue;
        if (f.channel_id(s.vars) != ch) continue;
        if (!sem_.guard_satisfied(f, s)) continue;
        if (!on_receiver(q, fi)) break;
      }
    }
  };
  for (int ei : sym.edges_from(process, s.locs[static_cast<std::size_t>(process)])) {
    const Edge& e = proc.edges[static_cast<std::size_t>(ei)];
    if (e.sync == SyncKind::kReceive) continue;
    if (!sem_.guard_satisfied(e, s)) continue;

    if (e.sync == SyncKind::kNone) {
      moves_.add(process, ei);
      moves_.close();
    } else {
      const int ch = e.channel_id(s.vars);
      if (sys.channel(ch).broadcast) {
        moves_.add(process, ei);
        receivers(ch, [this](int q, int fi) {
          moves_.add(q, fi);
          return false;  // one receive edge per process
        });
        moves_.close();
      } else {
        const std::size_t before = moves_.size();
        receivers(ch, [this, process, ei](int q, int fi) {
          moves_.add(process, ei);
          moves_.add(q, fi);
          moves_.close();
          return true;
        });
        if (moves_.size() == before) continue;  // no receiver: blocked
      }
    }
    choice_ends_.push_back(static_cast<std::uint32_t>(moves_.size()));
  }
  if (choice_ends_.empty()) return false;

  const auto c = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(choice_ends_.size()) - 1));
  const std::uint32_t begin = c == 0 ? 0 : choice_ends_[c - 1];
  const auto variant = static_cast<std::uint32_t>(
      rng_.uniform_int(0, static_cast<int>(choice_ends_[c] - begin) - 1));
  sem_.execute_sampled(s, moves_[begin + variant], rng_);
  return true;
}

bool Simulator::fire_immediate(ConcreteState& s) {
  sem_.enabled_moves_now(s, moves_);
  if (moves_.empty()) return false;
  const auto i = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(moves_.size()) - 1));
  sem_.execute_sampled(s, moves_[i], rng_);
  return true;
}

RunResult Simulator::run(const TimeBoundedReach& prop) {
  if (!prop.goal) {
    throw std::invalid_argument(quanta::context(
        "smc.simulator", "TimeBoundedReach.goal predicate must be set"));
  }
  ConcreteState& s = state_;
  s = initial_;
  RunResult result;
  double t = 0.0;
  if (observer_) observer_(s, t);

  const int processes = sem_.system().process_count();
  while (result.steps < kMaxSteps) {
    common::FaultInjector::site("smc.simulator.step");
    if (prop.goal(s)) {
      result.satisfied = true;
      result.hit_time = t;
      return result;
    }
    ++result.steps;

    if (sem_.symbolic().delay_forbidden(s.locs, s.vars)) {
      if (!fire_immediate(s)) return result;  // timelock: run stuck
      if (observer_) observer_(s, t);
      continue;
    }

    // Race: every active component bids a delay.
    double global_max_delay = ta::ConcreteSemantics::kInfDelay;
    for (int p = 0; p < processes; ++p) {
      const double d = sem_.invariant_max_delay(s, p);
      max_delay_[static_cast<std::size_t>(p)] = d;
      global_max_delay = std::min(global_max_delay, d);
    }
    Bid best;
    best.delay = ta::ConcreteSemantics::kInfDelay;
    for (int p = 0; p < processes; ++p) {
      Bid bid;
      if (compute_bid(s, p, max_delay_[static_cast<std::size_t>(p)], &bid) &&
          bid.delay < best.delay) {
        best = bid;
      }
    }
    if (best.process < 0) return result;  // all passive: time diverges
    if (best.delay > global_max_delay) {
      // A passive component's invariant would be violated before anyone
      // acts: the model is not well-formed here; the run is stuck.
      return result;
    }

    if (t + best.delay > prop.time_bound) return result;
    sem_.delay(s, best.delay);
    t += best.delay;

    // The winner acts; if its sampled time point has nothing executable
    // (e.g. disjoint guard windows), the race restarts from the new time.
    if (fire_process(s, best.process) && observer_) observer_(s, t);
  }
  return result;
}

}  // namespace quanta::smc
