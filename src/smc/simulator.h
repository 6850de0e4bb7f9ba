// Stochastic simulation of networks of timed automata following the
// UPPAAL-SMC semantics (David et al., CAV'11 / FORMATS'11): components race
// with independent delay distributions — uniform over the legal delay
// interval when the location invariant bounds delay, exponential with the
// location's exit rate otherwise — and the winner performs one of its
// enabled internal/output actions, chosen uniformly; inputs are reactive.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/pred.h"
#include "common/rng.h"
#include "ta/concrete.h"

namespace quanta::smc {

/// Time-bounded reachability property  Pr[<= bound](<> goal). The goal
/// carries its canonical AST (common::Predicate) — the statistical engines'
/// checkpoint fingerprints mix it, so structurally different properties
/// refuse each other's checkpoints. Plain lambdas still convert implicitly
/// (canonicalizing as "opaque"); use common::labeled_pred to keep several
/// such closures distinguishable.
struct TimeBoundedReach {
  double time_bound = 0.0;
  common::Predicate<ta::ConcreteState> goal;
};

struct RunResult {
  bool satisfied = false;
  /// Time at which the goal was first satisfied (only valid if satisfied).
  double hit_time = 0.0;
  std::size_t steps = 0;
};

class Simulator {
 public:
  Simulator(const ta::System& sys, std::uint64_t seed);

  /// Simulates one run up to the property's time bound.
  RunResult run(const TimeBoundedReach& prop);

  /// Observer called on the initial state and after every discrete event
  /// with the current model time (used by trajectory sampling).
  using Observer = std::function<void(const ta::ConcreteState&, double)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

  common::Rng& rng() { return rng_; }

  /// Restarts the random stream (used by the parallel runtime to give every
  /// run its own common::RngStream seed while reusing one Simulator — and
  /// with it the concrete-semantics setup — per worker).
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

 private:
  struct Bid {
    double delay = 0.0;
    int process = -1;
  };

  /// The delay bid of one process whose invariant allows at most `d_max`,
  /// or no bid if it has no (eventually) enabled internal/output edge within
  /// that window.
  bool compute_bid(const ta::ConcreteState& s, int process, double d_max,
                   Bid* bid);

  /// Executes one enabled internal/output edge of `process` (uniform choice),
  /// pairing outputs with a uniformly chosen enabled receiver. Returns false
  /// if nothing was executable.
  bool fire_process(ta::ConcreteState& s, int process);

  /// Fires one move from a zero-delay (committed/urgent) configuration.
  bool fire_immediate(ta::ConcreteState& s);

  ta::ConcreteSemantics sem_;
  common::Rng rng_;
  Observer observer_;
  ta::ConcreteState initial_;
  // Per-step scratch, cleared and refilled rather than freed, so a run
  // allocates nothing once these have grown to the model's working size.
  ta::ConcreteState state_;
  /// fire_process: the variants of every executable edge, edge by edge;
  /// fire_immediate: the moves enabled now.
  ta::MoveList moves_;
  /// fire_process: end offset in moves_ of each executable edge's variants.
  std::vector<std::uint32_t> choice_ends_;
  /// run: invariant_max_delay of every process in the current state.
  std::vector<double> max_delay_;
};

}  // namespace quanta::smc
