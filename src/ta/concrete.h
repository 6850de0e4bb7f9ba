// Concrete (real-valued) semantics of a network of timed automata, used by
// the statistical model checker (UPPAAL-SMC style simulation) and by test
// execution adapters.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ta/model.h"
#include "ta/symbolic.h"

namespace quanta::ta {

struct ConcreteState {
  std::vector<int> locs;
  Valuation vars;
  /// clocks[0] is the reference clock and stays 0.
  std::vector<double> clocks;
};

class ConcreteSemantics {
 public:
  static constexpr double kInfDelay = std::numeric_limits<double>::infinity();

  explicit ConcreteSemantics(const System& sys) : sym_(sys) {}

  const System& system() const { return sym_.system(); }

  ConcreteState initial() const;

  /// Maximum delay allowed by process p's location invariant (kInfDelay if
  /// unbounded). Diagonal invariant constraints are included.
  double invariant_max_delay(const ConcreteState& s, int process) const;
  /// Minimum over all processes.
  double invariant_max_delay(const ConcreteState& s) const;

  bool invariant_satisfied(const ConcreteState& s) const;

  /// Clock + data guard of the edge, evaluated at the current valuation.
  bool guard_satisfied(const Edge& e, const ConcreteState& s) const;

  /// Smallest additional delay d >= 0 after which the clock guard of `e`
  /// holds (data guard is not considered); kInfDelay if no such delay.
  double min_enabling_delay(const Edge& e, const ConcreteState& s) const;
  /// Largest delay d such that the clock guard of `e` still holds at s+d,
  /// assuming it holds at min_enabling_delay; kInfDelay if unbounded.
  double max_enabling_delay(const Edge& e, const ConcreteState& s) const;

  void delay(ConcreteState& s, double d) const;

  /// Executes a discrete move (resets + data updates + location change).
  /// `branch_choice[k]` selects the probabilistic branch of participant k's
  /// edge (-1 / missing entries mean the edge is Dirac).
  void execute(ConcreteState& s, MoveView m,
               std::span<const int> branch_choice = {}) const;
  /// Executes `m`, drawing each probabilistic participant's branch by
  /// weight from `rng` (one weighted_choice per such participant, in
  /// participant order).
  void execute_sampled(ConcreteState& s, MoveView m, common::Rng& rng) const;

  /// Fills `out` with the moves whose data guards, committed filter and
  /// clock guards are all satisfied right now.
  void enabled_moves_now(const ConcreteState& s, MoveList& out) const;

  const SymbolicSemantics& symbolic() const { return sym_; }

 private:
  SymbolicSemantics sym_;
};

}  // namespace quanta::ta
