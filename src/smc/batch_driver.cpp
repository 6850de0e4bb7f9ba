#include "smc/batch_driver.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/watchdog.h"

namespace quanta::smc::internal {

namespace {

/// One lazily-constructed Simulator per executor worker. Each slot is only
/// ever touched by its own worker (worker ids are stable within a job), so
/// no locking is needed; the simulator's RNG is reseeded per run.
class WorkerSims {
 public:
  WorkerSims(const ta::System& sys, unsigned workers)
      : sys_(&sys), sims_(workers) {}

  Simulator& at(unsigned worker) {
    std::optional<Simulator>& slot = sims_[worker];
    if (!slot) slot.emplace(*sys_, 0);
    return *slot;
  }

 private:
  const ta::System* sys_;
  std::vector<std::optional<Simulator>> sims_;
};

}  // namespace

common::StopReason run_batches(const ta::System& sys,
                               const TimeBoundedReach& prop,
                               std::uint64_t seed, std::uint64_t first,
                               std::uint64_t total, std::uint64_t batch,
                               exec::Executor& ex,
                               const common::Budget& budget,
                               exec::RunTelemetry* telemetry,
                               const char* fault_site,
                               const BatchFn& on_batch) {
  const common::RngStream streams(seed);
  WorkerSims sims(sys, ex.workers());
  // The watchdog turns the passive budget into cancellation: it fires this
  // token, which the executor polls between runs. A fired token stays
  // fired, so every call gets its own (exec/watchdog.h).
  exec::CancellationToken cancel;
  exec::Watchdog watchdog(budget, cancel);

  std::vector<RunResult> results;
  for (std::uint64_t base = first; base < total; base += results.size()) {
    // Fault-injection site: a kDeadline fault here makes the poll below
    // stop the loop at this boundary.
    common::FaultInjector::site(fault_site);
    const common::StopReason boundary = budget.poll(0);
    if (boundary != common::StopReason::kCompleted) return boundary;

    const std::uint64_t n = std::min(batch, total - base);
    results.assign(static_cast<std::size_t>(n), RunResult{});
    const std::uint64_t ran = ex.for_each(
        base, base + n,
        [&](std::uint64_t i, exec::Executor::WorkerContext& ctx) {
          Simulator& sim = sims.at(ctx.worker_id);
          sim.reseed(streams.seed_for(i));
          RunResult& r = results[static_cast<std::size_t>(i - base)];
          r = sim.run(prop);
          ctx.telemetry->sim_steps += r.steps;
          if (r.satisfied) ++ctx.telemetry->hits;
        },
        &cancel, telemetry);
    // Cut short by the watchdog: which runs finished depends on scheduling,
    // so the partial batch is dropped and the caller keeps whole batches.
    if (ran < n) return watchdog.fired_reason();
    if (on_batch(results) == BatchStep::kStop) break;
  }
  return common::StopReason::kCompleted;
}

}  // namespace quanta::smc::internal
