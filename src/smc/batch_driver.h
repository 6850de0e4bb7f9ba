// Internal batch driver of the statistical engines: the one parallel run
// loop behind estimate_probability_runs, sample_hit_times and sprt_test.
// It owns everything the engines share — the per-run RNG streams, one
// Simulator per executor worker, the per-call cancel token and its budget
// watchdog, the fault site and budget poll at each batch boundary — and
// hands every complete batch to the engine, which keeps only its own merge
// step (a tally, a hit-time list, an in-order LLR walk) and its snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/budget.h"
#include "exec/executor.h"
#include "smc/simulator.h"

namespace quanta::smc::internal {

/// What a batch callback asks of the driver after merging a batch.
enum class BatchStep { kContinue, kStop };

/// Receives one complete batch: one RunResult per run, in run-index order.
/// Batches arrive in order, each starting where the previous one ended.
using BatchFn = std::function<BatchStep(std::span<const RunResult>)>;

/// Simulates runs [first, total) in consecutive batches of `batch` runs on
/// `ex`; run i draws from common::RngStream(seed).seed_for(i), so each
/// batch's results are independent of the worker count. Before each batch
/// the driver visits the FaultInjector site `fault_site` and polls
/// `budget`; during a batch a watchdog turns the budget into cancellation.
/// A batch the watchdog cuts short is thrown away, so the batches handed to
/// `on_batch` always cover a prefix [first, first + k * batch) of whole
/// batches, at every worker count.
///
/// Returns kCompleted when every run was handed over or `on_batch` returned
/// kStop, and otherwise the reason the budget stopped the loop.
common::StopReason run_batches(const ta::System& sys,
                               const TimeBoundedReach& prop,
                               std::uint64_t seed, std::uint64_t first,
                               std::uint64_t total, std::uint64_t batch,
                               exec::Executor& ex,
                               const common::Budget& budget,
                               exec::RunTelemetry* telemetry,
                               const char* fault_site,
                               const BatchFn& on_batch);

}  // namespace quanta::smc::internal
