#include "exec/watchdog.h"

#include <chrono>

namespace quanta::exec {

namespace {
// Poll cadence. Short enough that a deadline overshoots by at most ~5ms,
// long enough that the watchdog thread is asleep essentially always.
constexpr std::chrono::milliseconds kPollSlice{5};
}  // namespace

Watchdog::Watchdog(const common::Budget& budget, common::CancelToken& target)
    : budget_(budget), target_(target) {
  if (!budget_.active()) return;  // nothing to watch; stay threadless
  // Poll once before the caller starts any work: a budget that is already
  // tripped (expired deadline, pre-cancelled token) fires the target here,
  // so no run can slip in before the polling thread gets scheduled.
  if (fire_if_tripped()) return;
  thread_ = std::thread([this] { run(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool Watchdog::fire_if_tripped() {
  // The watchdog has no view of engine memory, so it polls deadline /
  // cancel / forced-deadline only (memory_bytes_in_use = 0).
  const common::StopReason r = budget_.poll(0);
  if (r == common::StopReason::kCompleted) return false;
  reason_.store(r, std::memory_order_release);
  target_.cancel();
  return true;
}

void Watchdog::run() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (cv_.wait_for(lk, kPollSlice, [&] { return stop_; })) return;
    if (fire_if_tripped()) return;
  }
}

}  // namespace quanta::exec
