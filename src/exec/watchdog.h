// Watchdog: a background thread that turns a passive common::Budget into an
// active cancellation source. The statistical engines (src/smc) spend their
// time inside simulation bodies on pool workers, where the amortized
// poll-every-N-expansions scheme of the symbolic engines has no natural hook;
// instead the watchdog polls the budget's deadline / external cancel flag at
// a fixed cadence and fires an *internal* CancellationToken that the
// Executor's chunk loop already observes between runs. The reason the
// watchdog fired with is recorded so the caller can map cancellation back to
// a common::StopReason (kTimeLimit vs kCancelled vs kFault).
//
// Token ownership: the watchdog only ever *sets* `target`; it never resets
// it, not even in its destructor. A fired target is sticky, so engines must
// hand the watchdog a token scoped to a single run (src/smc creates a fresh
// internal token per estimate/SPRT call). Handing it a long-lived token and
// reusing that token for the next run — e.g. when resuming from a checkpoint
// after a budget stop — would silently abort the resumed run at its first
// poll; see ExecTest.WatchdogDoesNotResetTargetAcrossRuns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/budget.h"

namespace quanta::exec {

class Watchdog {
 public:
  /// Starts watching `budget` (deadline + external cancel + forced-deadline
  /// fault injection). When the budget trips, fires `target` and records the
  /// reason. The first poll runs synchronously here, so a budget that is
  /// tripped on entry has fired `target` before the constructor returns. An
  /// inactive budget starts no thread at all, so the wrapper costs nothing
  /// on the ungoverned path.
  Watchdog(const common::Budget& budget, common::CancelToken& target);

  /// Stops the polling thread and joins it. Does NOT reset `target`.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Why the watchdog fired `target`; kCompleted if it never fired.
  common::StopReason fired_reason() const {
    return reason_.load(std::memory_order_acquire);
  }

 private:
  /// One budget poll; on a trip, records the reason and fires `target`.
  bool fire_if_tripped();
  void run();

  const common::Budget& budget_;
  common::CancelToken& target_;
  std::atomic<common::StopReason> reason_{common::StopReason::kCompleted};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  ///< last member: started after everything above
};

}  // namespace quanta::exec
