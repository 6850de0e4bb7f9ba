// common::Budget — the shared resource envelope of every analysis entry
// point: a wall-clock deadline, a memory ceiling (fed by the byte accounting
// of core::StateStore), and a cooperative CancelToken unified with the
// src/exec cancellation path. Engines poll the budget amortized (every N
// expansions in core::explore, per batch/iteration in the statistical and
// numeric engines) and degrade to a kUnknown verdict carrying the
// StopReason; they never crash on an exhausted budget.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "common/verdict.h"

namespace quanta::common {

/// Cooperative cancellation flag shared between a budget's owner and its
/// consumers (engines, exec::Executor, the watchdog). Consumers poll
/// it between units of work; cancellation is advisory — work already inside
/// a unit runs to the next poll point. exec::CancellationToken is an alias
/// of this class, so one token cancels a symbolic search and a statistical
/// executor job alike.
///
/// Ownership: the token belongs to whoever created it, and it is sticky —
/// nothing in the toolkit ever resets a caller's token (engines and
/// exec::Watchdog only read or set it). A token left cancelled by run N
/// therefore stops run N+1 at its very first poll; callers reusing a token
/// across governed runs (e.g. a checkpoint/resume pair) must reset() it
/// between runs. Engines that need an internal cancellation source (the
/// watchdog's firing target in src/smc) create a fresh token per call
/// precisely so that this footgun cannot arise internally.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kNoMemoryLimit =
      std::numeric_limits<std::size_t>::max();

  /// Default: unlimited (no deadline, no memory ceiling, no token).
  Budget() = default;

  /// Absolute deadline `d` from now.
  static Budget deadline_after(Clock::duration d) {
    Budget b;
    return b.with_deadline_after(d);
  }

  Budget& with_deadline_after(Clock::duration d) {
    deadline_ = Clock::now() + d;
    has_deadline_ = true;
    return *this;
  }
  Budget& with_deadline_at(Clock::time_point t) {
    deadline_ = t;
    has_deadline_ = true;
    return *this;
  }
  Budget& with_memory_limit(std::size_t bytes) {
    memory_limit_ = bytes;
    return *this;
  }
  /// Not owned; must outlive every analysis run under this budget.
  Budget& with_cancel(const CancelToken* token) {
    cancel_ = token;
    return *this;
  }

  /// True when any bound is set — engines skip all polling otherwise.
  bool active() const {
    return has_deadline_ || memory_limit_ != kNoMemoryLimit ||
           cancel_ != nullptr;
  }
  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }
  std::size_t memory_limit() const { return memory_limit_; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// One poll: cancellation first (cheapest, most urgent), then the memory
  /// ceiling against the caller's byte accounting, then the deadline (the
  /// only clock read — amortize calls on hot loops). Returns kCompleted
  /// while every bound still holds.
  StopReason poll(std::size_t memory_bytes_in_use = 0) const {
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return StopReason::kCancelled;
    }
    if (memory_bytes_in_use > memory_limit_) return StopReason::kMemoryLimit;
    if (has_deadline_) {
      if (FaultInjector::deadline_forced()) return StopReason::kTimeLimit;
      if (Clock::now() >= deadline_) return StopReason::kTimeLimit;
    }
    return StopReason::kCompleted;
  }

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::size_t memory_limit_ = kNoMemoryLimit;
  const CancelToken* cancel_ = nullptr;
};

/// Graceful-degradation wrapper for analysis entry points: runs `body` and
/// absorbs resource failures — std::bad_alloc (real or injected allocation
/// failure) and quanta::ResourceError/FaultError (injected worker faults) —
/// by returning make_unknown(reason) instead of propagating. All other
/// exceptions (std::invalid_argument from argument validation, model
/// construction errors) pass through untouched.
template <typename Fn, typename MakeUnknown>
auto governed(Fn&& body, MakeUnknown&& make_unknown)
    -> std::invoke_result_t<Fn> {
  try {
    return std::forward<Fn>(body)();
  } catch (const std::bad_alloc&) {
    return std::forward<MakeUnknown>(make_unknown)(StopReason::kMemoryLimit);
  } catch (const quanta::ResourceError&) {
    return std::forward<MakeUnknown>(make_unknown)(StopReason::kFault);
  }
}

}  // namespace quanta::common
