// Monte-Carlo probability estimation for time-bounded reachability, with
// Chernoff-Hoeffding sample-size selection and Clopper-Pearson confidence
// intervals — the quantitative core of UPPAAL-SMC's Pr[<=T](<> goal) query.
// Runs execute on an exec::Executor with one common::RngStream seed per run
// index, so the estimate is bit-identical for every worker count (the
// sequential path is just a 1-worker executor).
#pragma once

#include <cstdint>

#include "ckpt/checkpoint.h"
#include "common/budget.h"
#include "common/verdict.h"
#include "exec/executor.h"
#include "smc/simulator.h"

namespace quanta::smc {

struct Estimate {
  double p_hat = 0.0;
  double ci_low = 0.0;
  double ci_high = 1.0;
  std::size_t runs = 0;       ///< requested sample size
  std::size_t completed = 0;  ///< runs actually simulated before a stop
  std::size_t hits = 0;
  /// kHolds = the full sample was collected, so p_hat / the CI carry the
  /// requested statistical guarantee. kUnknown = the budget (deadline,
  /// cancellation, fault) cut the sample short; p_hat and the CI are then
  /// computed over the `completed` runs only. The sample runs in fixed
  /// batches and a batch cut short is dropped, so a partial estimate covers
  /// exactly the run indices [0, completed) of whole batches — the same
  /// tally at every worker count for a stop at the same batch boundary.
  common::Verdict verdict = common::Verdict::kUnknown;
  common::StopReason stop = common::StopReason::kCompleted;
  /// Checkpoint/resume outcome of this run (see the `checkpoint` parameter).
  ckpt::ResumeInfo resume;
};

/// Estimates Pr[<= T](<> goal) with `runs` simulations; the confidence
/// interval is Clopper-Pearson at level 1 - alpha. Run i draws from
/// RngStream(seed).rng(i) and the sample is collected in fixed batches of
/// 1024 runs (smc/batch_driver.h), so the result does not depend on
/// `ex.workers()`.
///
/// With `checkpoint` enabled (src/ckpt), on a budget stop the
/// prefix-contiguous tally (completed runs, hits) is snapshotted and a later
/// call resumes at the next run index. Because run i is deterministic given
/// (seed, i), the resumed estimate is bit-identical to an uninterrupted one.
/// A batch that was cut short mid-air by the watchdog is discarded (those
/// runs are re-simulated on resume), so checkpoints only ever describe run
/// prefixes. The checkpoint fingerprint
/// covers the system, the time bound, runs, alpha, seed and the canonical
/// AST of the goal predicate (common::Predicate) — goals built from plain
/// closures canonicalize alike, so wrap those in common::labeled_pred.
Estimate estimate_probability_runs(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed, exec::Executor& ex,
                                   exec::RunTelemetry* telemetry = nullptr,
                                   const common::Budget& budget = {},
                                   const ckpt::Options& checkpoint = {});

/// UPPAAL-SMC style: chooses the number of runs from the Chernoff-Hoeffding
/// bound so that |p_hat - p| <= epsilon with probability >= 1 - delta.
Estimate estimate_probability(const ta::System& sys,
                              const TimeBoundedReach& prop, double epsilon,
                              double delta, std::uint64_t seed,
                              exec::Executor& ex,
                              exec::RunTelemetry* telemetry = nullptr,
                              const common::Budget& budget = {});

}  // namespace quanta::smc
