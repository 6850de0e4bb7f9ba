#include "smc/cdf.h"

#include <algorithm>
#include <stdexcept>

#include "smc/batch_driver.h"
#include "smc/validate.h"

namespace quanta::smc {

namespace {

/// Batch granularity: how stale a budget stop can be, and the unit a
/// stopped sample keeps whole.
constexpr std::uint64_t kBatch = 1024;

}  // namespace

HitTimesResult sample_hit_times(const ta::System& sys,
                                const TimeBoundedReach& prop,
                                std::size_t runs, std::uint64_t seed,
                                exec::Executor& ex,
                                const common::Budget& budget,
                                exec::RunTelemetry* telemetry) {
  internal::require_positive("smc.sample_hit_times", "runs", runs);
  return common::governed(
      [&] {
        HitTimesResult result;
        result.runs = runs;
        result.stop = internal::run_batches(
            sys, prop, seed, 0, runs, kBatch, ex, budget, telemetry,
            "smc.cdf.batch",
            [&](std::span<const RunResult> batch) {
              result.completed += batch.size();
              for (const RunResult& r : batch) {
                if (r.satisfied) result.times.push_back(r.hit_time);
              }
              return internal::BatchStep::kContinue;
            });
        if (result.completed == runs) result.verdict = common::Verdict::kHolds;
        return result;
      },
      [runs](common::StopReason r) {
        HitTimesResult result;
        result.runs = runs;
        result.stop = r;
        return result;
      });
}

CdfSeries empirical_cdf(const std::vector<double>& hit_times,
                        std::size_t total_runs, double horizon, int points) {
  if (points < 2) {
    throw std::invalid_argument(quanta::context(
        "smc.empirical_cdf", "points must be at least 2, got ", points));
  }
  if (!(horizon > 0.0)) {
    throw std::invalid_argument(quanta::context(
        "smc.empirical_cdf", "horizon must be positive, got ", horizon));
  }
  if (total_runs == 0) {
    throw std::invalid_argument(
        quanta::context("smc.empirical_cdf", "total_runs must be positive"));
  }
  std::vector<double> sorted = hit_times;
  std::sort(sorted.begin(), sorted.end());
  CdfSeries series;
  series.grid.reserve(static_cast<std::size_t>(points));
  series.prob.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    double t = horizon * static_cast<double>(i) / static_cast<double>(points - 1);
    auto it = std::upper_bound(sorted.begin(), sorted.end(), t);
    series.grid.push_back(t);
    series.prob.push_back(static_cast<double>(it - sorted.begin()) /
                          static_cast<double>(total_runs));
  }
  return series;
}

}  // namespace quanta::smc
