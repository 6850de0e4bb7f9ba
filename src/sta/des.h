// modes-style discrete-event simulation (§III): simulates (P)TA/STA models
// concretely, resolving *nondeterminism* — which delay to take inside a
// legal window, which enabled move to fire — with an explicitly specified
// scheduler policy, as the paper notes modes requires. Probabilistic
// branches are always sampled by weight.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "ta/concrete.h"

namespace quanta::sta {

enum class SchedulerPolicy {
  kAsap,           ///< act as soon as some move becomes enabled
  kAlap,           ///< delay as long as invariants/windows permit
  kUniformRandom,  ///< pick a move and a uniform time point in its window
};

const char* to_string(SchedulerPolicy p);

struct DesOptions {
  SchedulerPolicy policy = SchedulerPolicy::kAlap;
};

using DesPredicate = std::function<bool(const ta::ConcreteState&)>;

struct DesRun {
  bool terminated = false;   ///< terminal predicate reached
  double end_time = 0.0;     ///< time at termination (or at stall/limit)
  /// First-hit time per watch predicate; negative means "never hit".
  std::vector<double> first_hit;
  /// Per-monitor flag: false if the monitor predicate was ever violated.
  std::vector<bool> monitor_ok;
};

class DesSimulator {
 public:
  DesSimulator(const ta::System& sys, std::uint64_t seed,
               const DesOptions& opts = {});

  /// Simulates until `terminal` holds, time diverges, or limits hit.
  /// `watch` predicates record their first satisfaction time; `monitors`
  /// are safety predicates checked in every visited state.
  DesRun run(const DesPredicate& terminal,
             const std::vector<DesPredicate>& watch = {},
             const std::vector<DesPredicate>& monitors = {});

 private:
  struct MoveWindow {
    double lo = 0.0;
    double hi = 0.0;
  };

  /// Fills windows_ with the enabled-move windows [earliest, latest]
  /// relative to now, already clamped to the global invariant bound.
  void move_windows(const ta::ConcreteState& s);

  /// Fires one move enabled right now (uniform choice); false if none is.
  bool fire(ta::ConcreteState& s);

  ta::ConcreteSemantics sem_;
  DesOptions opts_;
  common::Rng rng_;
  ta::ConcreteState initial_;
  // Per-step scratch, cleared and refilled rather than freed.
  ta::ConcreteState state_;
  ta::MoveList moves_;
  std::vector<MoveWindow> windows_;
};

/// Aggregated statistics over many DES runs (the modes column of Table I).
struct DesEnsemble {
  std::size_t runs = 0;
  std::size_t terminated = 0;
  common::RunningStats end_time;
  std::vector<std::size_t> watch_hits;
  std::vector<std::size_t> monitor_violations;
};

DesEnsemble run_ensemble(const ta::System& sys, std::size_t runs,
                         std::uint64_t seed, const DesOptions& opts,
                         const DesPredicate& terminal,
                         const std::vector<DesPredicate>& watch = {},
                         const std::vector<DesPredicate>& monitors = {});

}  // namespace quanta::sta
