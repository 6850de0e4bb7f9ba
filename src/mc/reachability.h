// UPPAAL-style symbolic reachability: forward exploration of the zone graph
// with a passed/waiting list, discrete-state bucketing and zone-inclusion
// subsumption, all provided by the shared exploration core (src/core).
// Answers E<> goal and (by negation) A[] safe queries.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/pred.h"
#include "common/verdict.h"
#include "core/search.h"
#include "ta/symbolic.h"

namespace quanta::mc {

/// Predicate over symbolic states, carrying the canonical form of its AST
/// (fingerprinted by the checkpoint subsystem). Plain lambdas still convert
/// implicitly but canonicalize as "opaque" — prefer the builders below, or
/// common::labeled_pred for closures that must stay distinguishable. For
/// clock-constrained goals, check non-emptiness of the intersection with the
/// state's zone inside the predicate.
using StatePredicate = common::Predicate<ta::SymState>;

/// Predicate "process is in location" (by name); canonicalizes to the
/// resolved indices, "loc(p,l)".
StatePredicate loc_pred(const ta::System& sys, const std::string& process,
                        const std::string& location);
/// Conjunction / disjunction / negation of predicates (canonical forms
/// compose structurally).
inline StatePredicate pred_and(StatePredicate a, StatePredicate b) {
  return common::pred_and(std::move(a), std::move(b));
}
inline StatePredicate pred_or(StatePredicate a, StatePredicate b) {
  return common::pred_or(std::move(a), std::move(b));
}
inline StatePredicate pred_not(StatePredicate a) {
  return common::pred_not(std::move(a));
}

/// All mc engines report the core's uniform counters.
using SearchStats = core::SearchStats;

struct ReachOptions {
  bool extrapolate = true;
  /// Use zone-inclusion subsumption in the passed list (ablation A1 turns
  /// this off).
  bool inclusion_subsumption = true;
  bool record_trace = true;
  /// Expansion order of the waiting list. Verdicts are order-independent;
  /// witness traces and stored-state counts may differ.
  core::SearchOrder order = core::SearchOrder::kBfs;
  core::SearchLimits limits;
  /// Crash-safe checkpoint/resume policy (src/ckpt): with a path set, the
  /// search resumes from a validated snapshot chain at that path, snapshots
  /// when a resource bound stops it (and every `interval` explored states,
  /// appending incremental delta records), and the kUnknown verdict then
  /// carries the resume handle in ReachResult::resume. Interrupt-at-any-
  /// point + resume is bit-identical to an uninterrupted run. The checkpoint
  /// fingerprint covers the model, these options and the goal predicate's
  /// canonical AST — structurally different queries refuse each other's
  /// checkpoints.
  ckpt::Options checkpoint;
};

struct ReachResult {
  /// Three-valued answer to "E<> goal": kHolds with a witness, kViolated
  /// only after exhausting the full state space, kUnknown whenever the
  /// search was truncated (state/time/memory limit, cancellation, fault).
  common::Verdict verdict = common::Verdict::kUnknown;
  SearchStats stats;
  /// Action labels along a witness path (empty if not recorded/reachable).
  std::vector<std::string> trace;
  /// Printable form of the witness state.
  std::string witness;
  /// Checkpoint/resume outcome of this run (ReachOptions::checkpoint).
  ckpt::ResumeInfo resume;

  /// Definitely reachable (a witness state was found).
  bool reachable() const { return verdict == common::Verdict::kHolds; }
  /// Why the search ended; kCompleted iff the verdict is definite.
  common::StopReason stop() const { return stats.stop; }
};

/// E<> goal.
ReachResult reachable(const ta::System& sys, const StatePredicate& goal,
                      const ReachOptions& opts = {});

struct InvariantResult {
  /// Three-valued answer to "A[] safe". A truncated search is never a
  /// definite yes: kUnknown carries the stop reason in stats.stop.
  common::Verdict verdict = common::Verdict::kUnknown;
  SearchStats stats;
  std::vector<std::string> counterexample;
  std::string violating_state;
  /// Checkpoint/resume outcome of this run (ReachOptions::checkpoint).
  ckpt::ResumeInfo resume;

  bool holds() const { return verdict == common::Verdict::kHolds; }
  common::StopReason stop() const { return stats.stop; }
};

/// A[] safe  ==  not E<> (not safe).
InvariantResult check_invariant(const ta::System& sys,
                                const StatePredicate& safe,
                                const ReachOptions& opts = {});

}  // namespace quanta::mc
