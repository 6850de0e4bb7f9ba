#include "smc/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "common/fault.h"

namespace quanta::smc {

using ta::ConcreteState;
using ta::Edge;
using ta::Move;
using ta::Process;
using ta::SyncKind;

namespace {
/// Discrete events per run before it is abandoned as stuck (unsatisfied).
constexpr std::size_t kMaxSteps = 1'000'000;
}  // namespace

Simulator::Simulator(const ta::System& sys, std::uint64_t seed)
    : sem_(sys), rng_(seed) {}

bool Simulator::compute_bid(const ConcreteState& s, int process, Bid* bid) {
  const ta::System& sys = sem_.system();
  const Process& proc = sys.process(process);
  const double d_max = sem_.invariant_max_delay(s, process);

  // Earliest delay after which some internal/output edge becomes enabled.
  double d_min = ta::ConcreteSemantics::kInfDelay;
  for (const Edge& e : proc.edges) {
    if (e.source != s.locs[process] || e.sync == SyncKind::kReceive) continue;
    if (e.data_guard && !e.data_guard(s.vars)) continue;
    d_min = std::min(d_min, sem_.min_enabling_delay(e, s));
  }
  if (d_min > d_max) return false;  // passive: nothing enabled in the window

  double delay;
  if (d_max < ta::ConcreteSemantics::kInfDelay) {
    delay = rng_.uniform(d_min, d_max);
  } else {
    double rate = proc.locations[static_cast<std::size_t>(s.locs[process])].exit_rate;
    delay = d_min + rng_.exponential(rate);
  }
  bid->delay = delay;
  bid->process = process;
  return true;
}

bool Simulator::fire_process(ConcreteState& s, int process) {
  const ta::System& sys = sem_.system();
  const Process& proc = sys.process(process);

  // Collect this process's executable internal/output edges right now. An
  // output is executable only if at least one receiver is available (the
  // paper's models are input-enabled along reachable paths; see DESIGN.md).
  struct Choice {
    int edge = -1;
    std::vector<Move> variants;  ///< one per receiver choice
  };
  std::vector<Choice> choices;
  for (std::size_t ei = 0; ei < proc.edges.size(); ++ei) {
    const Edge& e = proc.edges[ei];
    if (e.source != s.locs[process] || e.sync == SyncKind::kReceive) continue;
    if (!sem_.guard_satisfied(e, s)) continue;

    Choice c;
    c.edge = static_cast<int>(ei);
    if (e.sync == SyncKind::kNone) {
      c.variants.push_back(Move{{{process, c.edge}}});
    } else {
      int ch = e.channel_id(s.vars);
      const bool broadcast = sys.channel(ch).broadcast;
      Move base{{{process, c.edge}}};
      if (broadcast) {
        for (int q = 0; q < sys.process_count(); ++q) {
          if (q == process) continue;
          const Process& qproc = sys.process(q);
          for (std::size_t fi = 0; fi < qproc.edges.size(); ++fi) {
            const Edge& f = qproc.edges[fi];
            if (f.source != s.locs[q] || f.sync != SyncKind::kReceive) continue;
            if (f.channel_id(s.vars) != ch) continue;
            if (!sem_.guard_satisfied(f, s)) continue;
            base.participants.emplace_back(q, static_cast<int>(fi));
            break;
          }
        }
        c.variants.push_back(std::move(base));
      } else {
        for (int q = 0; q < sys.process_count(); ++q) {
          if (q == process) continue;
          const Process& qproc = sys.process(q);
          for (std::size_t fi = 0; fi < qproc.edges.size(); ++fi) {
            const Edge& f = qproc.edges[fi];
            if (f.source != s.locs[q] || f.sync != SyncKind::kReceive) continue;
            if (f.channel_id(s.vars) != ch) continue;
            if (!sem_.guard_satisfied(f, s)) continue;
            Move m = base;
            m.participants.emplace_back(q, static_cast<int>(fi));
            c.variants.push_back(std::move(m));
          }
        }
        if (c.variants.empty()) continue;  // output with no receiver: blocked
      }
    }
    choices.push_back(std::move(c));
  }
  if (choices.empty()) return false;

  const Choice& chosen =
      choices[static_cast<std::size_t>(rng_.uniform_int(0, static_cast<int>(choices.size()) - 1))];
  const Move& m = chosen.variants[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(chosen.variants.size()) - 1))];
  sem_.execute_sampled(s, m, rng_);
  return true;
}

bool Simulator::fire_immediate(ConcreteState& s) {
  auto moves = sem_.enabled_moves_now(s);
  if (moves.empty()) return false;
  const Move& m = moves[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(moves.size()) - 1))];
  sem_.execute_sampled(s, m, rng_);
  return true;
}

RunResult Simulator::run(const TimeBoundedReach& prop) {
  if (!prop.goal) {
    throw std::invalid_argument(quanta::context(
        "smc.simulator", "TimeBoundedReach.goal predicate must be set"));
  }
  ConcreteState s = sem_.initial();
  RunResult result;
  double t = 0.0;
  if (observer_) observer_(s, t);

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
    Bid best;
    best.delay = ta::ConcreteSemantics::kInfDelay;
    for (int p = 0; p < sem_.system().process_count(); ++p) {
      Bid bid;
      if (compute_bid(s, p, &bid) && bid.delay < best.delay) best = bid;
    }
    if (best.process < 0) return result;  // all passive: time diverges
    if (best.delay > sem_.invariant_max_delay(s)) {
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
