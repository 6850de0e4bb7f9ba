// UPPAAL-CORA-style minimum-cost reachability for priced timed automata:
// locations accumulate cost at a rate per time unit, edges charge a discrete
// cost, and the engine finds the cheapest way to reach a goal predicate.
// Solved with Dijkstra over the digital-clocks semantics (DESIGN.md §4.2);
// exact for closed, diagonal-free models with integer rates and costs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/pred.h"
#include "common/verdict.h"
#include "core/search.h"
#include "ta/digital.h"

namespace quanta::cora {

/// Structural predicate over digital states; build with
/// common::loc_index_pred / pred_and / pred_or / pred_not (or labeled_pred
/// for closures) so checkpoint fingerprints can tell goals apart.
using CostPredicate = common::Predicate<ta::DigitalState>;

/// Cost annotations for a ta::System. Indices follow the system's process /
/// location / edge numbering; missing entries default to 0.
class PriceModel {
 public:
  explicit PriceModel(const ta::System& sys);

  /// Cost per time unit while process `p` is in location `loc`.
  void set_location_rate(int process, int location, std::int64_t rate);
  /// One-off cost of taking the edge.
  void set_edge_cost(int process, int edge, std::int64_t cost);

  std::int64_t location_rate(int process, int location) const {
    return rates_[static_cast<std::size_t>(process)][static_cast<std::size_t>(location)];
  }
  std::int64_t edge_cost(int process, int edge) const {
    return edge_costs_[static_cast<std::size_t>(process)][static_cast<std::size_t>(edge)];
  }

  /// Cost of one unit delay in the given configuration: the sum of all
  /// active location rates.
  std::int64_t delay_rate(const std::vector<int>& locs) const;
  /// Total edge cost of a synchronised move.
  std::int64_t move_cost(ta::MoveView m) const;

 private:
  std::vector<std::vector<std::int64_t>> rates_;
  std::vector<std::vector<std::int64_t>> edge_costs_;
};

struct MinCostResult {
  /// kHolds = the goal was popped from the cost-ordered queue, so `cost` is
  /// the exact optimum (Dijkstra invariant — sound even if a budget would
  /// have tripped later); kViolated = the goal is unreachable (queue
  /// exhausted); kUnknown = search truncated before either.
  common::Verdict verdict = common::Verdict::kUnknown;
  std::int64_t cost = 0;
  core::SearchStats stats;
  /// Action labels along one cheapest path ("tick" for unit delays).
  std::vector<std::string> trace;
  /// Checkpoint/resume outcome of this run (MinCostOptions::checkpoint).
  ckpt::ResumeInfo resume;

  bool reachable() const { return verdict == common::Verdict::kHolds; }
  common::StopReason stop() const { return stats.stop; }
};

struct MinCostOptions {
  core::SearchLimits limits{.max_states = 10'000'000, .budget = {}};
  bool record_trace = false;
  /// Crash-safe checkpoint/resume policy (src/ckpt), Provider::kPriced. A
  /// snapshot captures the store, the cost-ordered worklist (restored with
  /// its heap layout intact, so pop order is bit-identical) and the per-node
  /// tentative costs / predecessors; delta records hold only appended
  /// states plus the nodes whose tentative cost changed since the last save
  /// — Dijkstra relaxations mutate in place, so changed nodes are tracked in
  /// a dirty journal rather than assumed append-only. The fingerprint covers
  /// the system, every price rate and edge cost, record_trace and the goal
  /// predicate's canonical AST.
  ckpt::Options checkpoint;
};

/// Minimum accumulated cost over all runs reaching `goal`.
MinCostResult min_cost_reachability(const ta::System& sys,
                                    const PriceModel& prices,
                                    const CostPredicate& goal,
                                    const MinCostOptions& opts = {});

}  // namespace quanta::cora
