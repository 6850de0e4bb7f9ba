#include "ta/concrete.h"

#include <algorithm>
#include <cmath>

namespace quanta::ta {

namespace {

bool atom_satisfied(const ClockConstraint& c, const std::vector<double>& clocks) {
  if (c.bound >= dbm::kInf) return true;
  double diff = clocks[static_cast<std::size_t>(c.i)] -
                clocks[static_cast<std::size_t>(c.j)];
  double m = dbm::bound_value(c.bound);
  // Tolerate floating-point noise on non-strict bounds so that schedulers
  // acting exactly at a window boundary (ALAP) see the guard as satisfied.
  constexpr double kEps = 1e-9;
  return dbm::bound_is_strict(c.bound) ? diff < m : diff <= m + kEps;
}

}  // namespace

ConcreteState ConcreteSemantics::initial() const {
  const System& sys = system();
  ConcreteState s;
  s.locs.resize(static_cast<std::size_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    s.locs[p] = sys.process(p).initial;
  }
  s.vars = sys.vars().initial();
  s.clocks.assign(static_cast<std::size_t>(sys.dim()), 0.0);
  return s;
}

double ConcreteSemantics::invariant_max_delay(const ConcreteState& s,
                                              int process) const {
  const Location& loc =
      system().process(process).locations.at(s.locs[process]);
  double bound = kInfDelay;
  for (const auto& c : loc.invariant) {
    if (c.bound >= dbm::kInf) continue;
    // Only constraints with the reference clock as the right side tighten
    // under delay: (x_i - x_0 <= m) becomes x_i + d <= m.
    if (c.j == 0 && c.i != 0) {
      double slack = dbm::bound_value(c.bound) - s.clocks[c.i];
      bound = std::min(bound, std::max(0.0, slack));
    }
    // Diagonal constraints and lower bounds are delay-invariant or relax.
  }
  return bound;
}

double ConcreteSemantics::invariant_max_delay(const ConcreteState& s) const {
  double bound = kInfDelay;
  for (int p = 0; p < system().process_count(); ++p) {
    bound = std::min(bound, invariant_max_delay(s, p));
  }
  return bound;
}

bool ConcreteSemantics::invariant_satisfied(const ConcreteState& s) const {
  for (int p = 0; p < system().process_count(); ++p) {
    const Location& loc = system().process(p).locations.at(s.locs[p]);
    for (const auto& c : loc.invariant) {
      if (!atom_satisfied(c, s.clocks)) return false;
    }
  }
  return true;
}

bool ConcreteSemantics::guard_satisfied(const Edge& e,
                                        const ConcreteState& s) const {
  if (e.data_guard && !e.data_guard(s.vars)) return false;
  for (const auto& c : e.guard) {
    if (!atom_satisfied(c, s.clocks)) return false;
  }
  return true;
}

double ConcreteSemantics::min_enabling_delay(const Edge& e,
                                             const ConcreteState& s) const {
  double lo = 0.0;
  double hi = kInfDelay;
  for (const auto& c : e.guard) {
    if (c.bound >= dbm::kInf) continue;
    double m = dbm::bound_value(c.bound);
    if (c.i != 0 && c.j != 0) {
      // Diagonal: delay-invariant, must hold already.
      if (!atom_satisfied(c, s.clocks)) return kInfDelay;
    } else if (c.j == 0) {
      // x_i <= m: upper bound on delay.
      hi = std::min(hi, m - s.clocks[c.i]);
    } else {
      // -x_j <= m, i.e. x_j >= -m: lower bound on delay.
      lo = std::max(lo, -m - s.clocks[c.j]);
    }
  }
  if (lo > hi) return kInfDelay;
  return lo;
}

double ConcreteSemantics::max_enabling_delay(const Edge& e,
                                             const ConcreteState& s) const {
  double hi = kInfDelay;
  for (const auto& c : e.guard) {
    if (c.bound >= dbm::kInf) continue;
    if (c.j == 0 && c.i != 0) {
      hi = std::min(hi, static_cast<double>(dbm::bound_value(c.bound)) -
                            s.clocks[c.i]);
    }
  }
  return hi;
}

void ConcreteSemantics::delay(ConcreteState& s, double d) const {
  for (std::size_t i = 1; i < s.clocks.size(); ++i) s.clocks[i] += d;
}

namespace {

/// Applies participant edge `edge`'s effect under branch `branch`.
void apply_effect(const System& sys, ConcreteState& s, int p, const Edge& edge,
                  int branch) {
  EdgeEffect eff = resolve_effect(edge, branch);
  s.locs[p] = eff.target;
  for (const auto& [clock, value] : *eff.resets) {
    s.clocks[static_cast<std::size_t>(clock)] = static_cast<double>(value);
  }
  if (*eff.update) {
    (*eff.update)(s.vars);
    sys.vars().check_bounds(s.vars);
  }
}

}  // namespace

void ConcreteSemantics::execute(ConcreteState& s, MoveView m,
                                std::span<const int> branch_choice) const {
  const System& sys = system();
  for (std::size_t k = 0; k < m.size(); ++k) {
    const auto& [p, e] = m[k];
    const Edge& edge = sys.process(p).edges.at(static_cast<std::size_t>(e));
    apply_effect(sys, s, p, edge,
                 k < branch_choice.size() ? branch_choice[k] : -1);
  }
}

void ConcreteSemantics::execute_sampled(ConcreteState& s, MoveView m,
                                        common::Rng& rng) const {
  // Branch weights are constants of the edges, so drawing participant k's
  // branch right before applying its effect consumes the stream exactly as
  // drawing every branch first would.
  const System& sys = system();
  for (const auto& [p, e] : m) {
    const Edge& edge = sys.process(p).edges.at(static_cast<std::size_t>(e));
    const int branch =
        edge.probabilistic()
            ? static_cast<int>(rng.weighted_choice(
                  edge.branches, [](const ProbBranch& b) { return b.weight; }))
            : -1;
    apply_effect(sys, s, p, edge, branch);
  }
}

void ConcreteSemantics::enabled_moves_now(const ConcreteState& s,
                                          MoveList& out) const {
  sym_.enabled_moves(s.locs, s.vars, out);
  out.retain([this, &s](MoveView m) {
    for (const auto& [p, e] : m) {
      const Edge& edge =
          system().process(p).edges.at(static_cast<std::size_t>(e));
      for (const auto& c : edge.guard) {
        if (!atom_satisfied(c, s.clocks)) return false;
      }
    }
    return true;
  });
}

}  // namespace quanta::ta
