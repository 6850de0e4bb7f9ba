// Wald's Sequential Probability Ratio Test for qualitative SMC queries
// Pr[<=T](<> goal) >= theta, as used by UPPAAL-SMC for hypothesis testing.
//
// Parallelisation follows the batched-Wald scheme of multi-core SMC tools
// (modes): runs are simulated in batches of `batch_size` on the executor
// (smc/batch_driver.h), each batch's per-run outcomes are merged in
// run-index order, and the log-likelihood ratio is walked run by run — so
// the verdict AND the number of runs consumed are bit-identical to the
// fully sequential test for every worker count. On a verdict no further
// batch starts; runs of the final batch beyond the crossing point were
// simulated but are not consumed (they only show up in the telemetry). A
// budget stop consumes whole batches only: a batch cut short is dropped.
#pragma once

#include <cstdint>

#include "ckpt/checkpoint.h"
#include "common/budget.h"
#include "common/verdict.h"
#include "exec/executor.h"
#include "smc/simulator.h"

namespace quanta::smc {

enum class SprtVerdict {
  kAccepted,      ///< H0: p >= theta + delta accepted
  kRejected,      ///< H1: p <= theta - delta accepted
  kInconclusive,  ///< max_runs exhausted without crossing a boundary
};

struct SprtResult {
  SprtVerdict verdict = SprtVerdict::kInconclusive;
  std::size_t runs = 0;
  std::size_t hits = 0;
  /// Why an inconclusive test stopped: kStateLimit = max_runs exhausted,
  /// kTimeLimit/kCancelled/kFault = the budget cut the test short.
  /// kCompleted whenever a boundary was crossed (verdict != inconclusive).
  common::StopReason stop = common::StopReason::kCompleted;
  /// Checkpoint/resume outcome of this run (SprtOptions::checkpoint).
  ckpt::ResumeInfo resume;

  /// The test outcome as the toolkit-wide three-valued verdict on
  /// "Pr[<=T](<> goal) >= theta": accepted H0 = kHolds, accepted H1 =
  /// kViolated, inconclusive = kUnknown.
  common::Verdict as_verdict() const {
    switch (verdict) {
      case SprtVerdict::kAccepted: return common::Verdict::kHolds;
      case SprtVerdict::kRejected: return common::Verdict::kViolated;
      case SprtVerdict::kInconclusive: break;
    }
    return common::Verdict::kUnknown;
  }
};

struct SprtOptions {
  double alpha = 0.05;       ///< type-I error (false reject of H0)
  double beta = 0.05;        ///< type-II error (false accept of H0)
  double indifference = 0.01;  ///< half-width of the indifference region
  std::size_t max_runs = 1'000'000;
  /// Runs simulated per parallel batch before the Wald boundaries are
  /// re-checked. Must not depend on the worker count (it is part of the
  /// deterministic schedule); 0 means the default of 128.
  std::size_t batch_size = 0;
  /// Crash-safe checkpoint/resume policy (src/ckpt). A snapshot records the
  /// exact position of the in-order LLR walk (runs consumed, hits, the LLR
  /// as its IEEE-754 bit pattern); because run i is a pure function of
  /// (seed, i) via common::RngStream, a test resumed from ANY walk position
  /// consumes the same runs and reaches the same verdict bit-identically —
  /// batch boundaries only schedule work, they never affect outcomes. The
  /// interval counts completed runs; the fingerprint covers the system, all
  /// test parameters, the seed and the goal predicate's canonical AST.
  ckpt::Options checkpoint;

  /// Rejects error probabilities / indifference outside (0, 1) and a zero
  /// run cap, naming the offending parameter.
  void validate(double theta) const;
};

/// Tests H0: p >= theta + indifference against H1: p <= theta - indifference.
SprtResult sprt_test(const ta::System& sys, const TimeBoundedReach& prop,
                     double theta, const SprtOptions& opts, std::uint64_t seed,
                     exec::Executor& ex,
                     exec::RunTelemetry* telemetry = nullptr,
                     const common::Budget& budget = {});

}  // namespace quanta::smc
