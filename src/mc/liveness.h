// Leads-to (response) properties:  phi --> psi  ==  A[] (phi imply A<> psi).
//
// Checked on the full zone graph (exact-equality deduplication; finite thanks
// to extrapolation): the property fails iff from some reachable phi-state a
// path avoiding psi reaches either a cycle of non-psi states or a state with
// no successors at all. As in UPPAAL practice this judges over runs with
// discrete progress (zeno idling in a state with enabled actions is not a
// counterexample); see DESIGN.md.
//
// phi and psi must be *discrete* predicates (locations/variables only); the
// zone component of the states they receive must not influence the verdict.
#pragma once

#include "mc/reachability.h"

namespace quanta::mc {

struct LeadsToResult {
  /// kUnknown whenever the zone graph was truncated — unexpanded frontier
  /// states would read as stuck runs, so no verdict is supported at all.
  common::Verdict verdict = common::Verdict::kUnknown;
  SearchStats stats;
  std::string reason;  ///< human-readable explanation when not kHolds
  /// Checkpoint/resume outcome of this run (ReachOptions::checkpoint).
  ckpt::ResumeInfo resume;

  bool holds() const { return verdict == common::Verdict::kHolds; }
  common::StopReason stop() const { return stats.stop; }
};

/// With ReachOptions::checkpoint enabled, the zone-graph construction is
/// checkpointed under Provider::kLiveness (store + DFS worklist + the
/// successor lists of expanded nodes, incrementally as delta records); a
/// resumed build is bit-identical to an uninterrupted one. Once the graph
/// completes it is snapshotted whole (empty worklist), so an interrupt
/// during the violation search resumes without rebuilding — the search
/// itself is a deterministic function of the complete graph. The
/// fingerprint mixes the canonical ASTs of phi and psi.
LeadsToResult check_leads_to(const ta::System& sys, const StatePredicate& phi,
                             const StatePredicate& psi,
                             const ReachOptions& opts = {});

/// A<> psi ("inevitably psi"): every run from the initial state eventually
/// satisfies psi — the special case of leads-to with phi = initial.
LeadsToResult check_eventually(const ta::System& sys,
                               const StatePredicate& psi,
                               const ReachOptions& opts = {});

/// E[] psi ("psi can hold forever"): some run stays inside psi states —
/// the dual of A<> (not psi).
struct PossiblyAlwaysResult {
  common::Verdict verdict = common::Verdict::kUnknown;
  SearchStats stats;
  /// Checkpoint/resume outcome of this run (ReachOptions::checkpoint).
  ckpt::ResumeInfo resume;

  bool holds() const { return verdict == common::Verdict::kHolds; }
  common::StopReason stop() const { return stats.stop; }
};
PossiblyAlwaysResult check_possibly_always(const ta::System& sys,
                                           const StatePredicate& psi,
                                           const ReachOptions& opts = {});

}  // namespace quanta::mc
