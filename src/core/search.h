// Shared search vocabulary of the exploration core: every symbolic engine
// (mc reachability/liveness, TIGA, CORA, BIP, ECDAR, the digital-MDP builder)
// expresses its passed/waiting loop with these types so that limits,
// statistics, budgets and truncation semantics are uniform across the
// toolkit. A search that stops for any resource reason reports the
// common::StopReason in its stats — never a definite verdict.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/budget.h"
#include "common/error.h"
#include "common/verdict.h"
#include "store/pool.h"

namespace quanta::core {

/// Order in which waiting states are expanded. All orders visit the same
/// state space; verdicts of order-insensitive analyses must not change.
enum class SearchOrder { kBfs, kDfs, kPriority };

/// Resource bounds on an exploration: the classic stored-state cap plus the
/// shared resource envelope (wall-clock deadline, memory ceiling,
/// cancellation token) of common::Budget.
struct SearchLimits {
  std::size_t max_states = std::numeric_limits<std::size_t>::max();

  /// Deadline / memory ceiling / cancel token; polled amortized by
  /// core::explore so the hot loop stays flat when the budget is inactive.
  common::Budget budget;

  /// Debug pacing: core::explore sleeps this long after visiting each
  /// state, stretching a search so deadlines and kill signals land mid-run
  /// (crash drills, tools/ckpt_smoke). Zero — the default — is off; at
  /// most kMaxPace.
  std::chrono::microseconds pace{0};
  static constexpr std::chrono::microseconds kMaxPace{1'000'000};

  /// The uniform truncation rule: the search stops (truncated) when the
  /// number of *stored* states reaches the limit, checked after the popped
  /// state has been visited (goal-tested) but before it is expanded.
  bool reached(std::size_t states_stored) const {
    return states_stored >= max_states;
  }

  /// Entry-point argument validation: a zero state bound silently explores
  /// nothing and would masquerade as an exhaustive "no"; reject it loudly.
  void validate(const char* subsystem) const {
    if (max_states == 0) {
      throw std::invalid_argument(quanta::context(
          subsystem, "SearchLimits.max_states must be positive (a zero bound ",
          "would truncate before the initial state)"));
    }
    if (pace.count() < 0 || pace > kMaxPace) {
      throw std::invalid_argument(quanta::context(
          subsystem, "SearchLimits.pace must be within [0, ",
          kMaxPace.count(), "] microseconds, got ", pace.count()));
    }
  }
};

/// Occupancy snapshot of a StateStore (StateStore::metrics()).
struct StoreMetrics {
  std::size_t stored = 0;     ///< interned states, including covered ones
  std::size_t covered = 0;    ///< tombstoned (subsumed) states
  std::size_t slots = 0;      ///< hash-table capacity
  std::size_t occupied = 0;   ///< slots in use (= distinct key hashes)
  std::size_t max_chain = 0;  ///< most states interned under one key hash
  std::size_t memory_bytes = 0;  ///< StateStore::memory_bytes() at snapshot
  store::PoolMetrics pool{};  ///< payload-pool snapshot (zero when unpooled)

  double load_factor() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(occupied) / static_cast<double>(slots);
  }
};

/// Counters every engine reports identically.
struct SearchStats {
  std::size_t states_stored = 0;    ///< interned states (incl. covered ones)
  std::size_t states_explored = 0;  ///< states popped and visited
  std::size_t transitions = 0;      ///< successor edges generated
  bool truncated = false;           ///< a SearchLimits/Budget bound was hit
  /// Why the search ended; truncated == (stop != kCompleted). A definite
  /// engine verdict is only ever derived from a kCompleted search (or from
  /// a witness found before any bound was hit).
  common::StopReason stop = common::StopReason::kCompleted;
  /// The store's occupancy when the search ended (filled by core::explore).
  StoreMetrics store;

  /// Marks the search as stopped by a resource bound.
  void stop_for(common::StopReason reason) {
    stop = reason;
    truncated = true;
  }
};

}  // namespace quanta::core
