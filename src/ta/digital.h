// Digital-clocks (integer time) semantics of a network of timed automata.
// Clocks advance in unit steps and are capped at their maximal constant + 1,
// giving a finite transition system. Exact for closed, diagonal-free models
// (Henzinger/Manna/Pnueli), which is what the paper's game and priced
// examples use; see DESIGN.md §4 for the substitution rationale.
//
// Used by the timed-game solver (UPPAAL-TIGA reproduction), the priced
// reachability engine (UPPAAL-CORA) and the ECDAR refinement checker.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ta/model.h"
#include "ta/symbolic.h"

namespace quanta::ta {

struct DigitalState {
  std::vector<int> locs;
  Valuation vars;
  /// Integer clock values, capped; clocks[0] stays 0.
  std::vector<std::int32_t> clocks;

  auto operator<=>(const DigitalState&) const = default;
  std::size_t hash() const;
};

struct DigitalStateHash {
  std::size_t operator()(const DigitalState& s) const { return s.hash(); }
};

class DigitalSemantics {
 public:
  /// Throws std::invalid_argument if the model has diagonal constraints
  /// (digital clocks would be unsound for those).
  explicit DigitalSemantics(const System& sys);

  const System& system() const { return sym_.system(); }

  DigitalState initial() const;

  /// True iff a unit delay is allowed (invariants still hold afterwards and
  /// no committed/urgent context forbids delay).
  bool can_delay(const DigitalState& s) const;

  /// Unit delay with per-clock capping, written into `next` (whose buffers
  /// are reused; it may be `s` itself). Requires can_delay(s).
  void delay_one(const DigitalState& s, DigitalState& next) const;

  /// Fills `out` with the discrete moves enabled right now (data + clock
  /// guards + committed).
  void enabled_moves(const DigitalState& s, MoveList& out) const;

  /// Applies a move to `s`, writing the successor into `next` (whose
  /// buffers are reused); `branch_choice[k]` picks participant k's
  /// probabilistic branch (-1 / missing means Dirac).
  void apply(const DigitalState& s, MoveView m, DigitalState& next,
             std::span<const int> branch_choice = {}) const;

  bool invariant_ok(const DigitalState& s) const;

  /// Evaluates a single clock constraint at the state.
  bool constraint_ok(const ClockConstraint& c, const DigitalState& s) const;

  const SymbolicSemantics& symbolic() const { return sym_; }
  std::int32_t cap(int clock) const { return caps_.at(static_cast<std::size_t>(clock)); }

 private:
  /// Clock `clock` of `s` after a unit delay (capped; clock 0 stays 0).
  std::int32_t delayed(const DigitalState& s, std::size_t clock) const;

  SymbolicSemantics sym_;
  std::vector<std::int32_t> caps_;  ///< max constant + 1 per clock
};

}  // namespace quanta::ta
