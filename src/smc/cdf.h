// Empirical cumulative distribution of first-hit times — the machinery
// behind the paper's Fig. 4 ("cumulative probability distribution for the
// trains to cross in function of time").
#pragma once

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/verdict.h"
#include "exec/executor.h"
#include "smc/simulator.h"

namespace quanta::smc {

/// Hit-time series with degradation metadata. `times` holds the hit times of
/// the satisfied runs among the first `completed` run indices, in run-index
/// order (unsatisfied runs contribute nothing; the CDF treats them as "after
/// the bound"). Runs are simulated in batches of 1024 (smc/batch_driver.h);
/// a batch the budget cut short is dropped, so `completed` is always a whole
/// number of batches (or `runs`).
struct HitTimesResult {
  std::vector<double> times;
  std::size_t runs = 0;       ///< requested
  std::size_t completed = 0;  ///< prefix of run indices kept
  /// kHolds = all requested runs were simulated; kUnknown = the budget cut
  /// the sample short. Either way the series is bit-identical for every
  /// worker count that stops at the same batch boundary.
  common::Verdict verdict = common::Verdict::kUnknown;
  common::StopReason stop = common::StopReason::kCompleted;
};

/// Runs `runs` simulations of Pr[<= prop.time_bound](<> prop.goal) and
/// collects the hit time of every satisfied run. Run i draws from
/// RngStream(seed).rng(i), so the series is bit-identical for every worker
/// count; pass an unlimited common::Budget{} for the plain series.
HitTimesResult sample_hit_times(const ta::System& sys,
                                const TimeBoundedReach& prop,
                                std::size_t runs, std::uint64_t seed,
                                exec::Executor& ex,
                                const common::Budget& budget,
                                exec::RunTelemetry* telemetry = nullptr);

struct CdfSeries {
  std::vector<double> grid;   ///< time points
  std::vector<double> prob;   ///< P(hit time <= grid[i])
};

/// Empirical CDF of the hit times over `total_runs` runs, evaluated on a
/// uniform grid of `points` values in [0, horizon].
CdfSeries empirical_cdf(const std::vector<double>& hit_times,
                        std::size_t total_runs, double horizon, int points);

}  // namespace quanta::smc
