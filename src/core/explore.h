// core::explore — the one passed/waiting loop behind every symbolic engine.
//
// The engine supplies two callbacks over Worklist entries:
//   visit(entry)  -> Visit   goal tests / stale-entry filtering;
//   expand(entry) -> size_t  generates successors (interning them into the
//                            store and pushing fresh ones onto the worklist),
//                            returning the number of transitions taken.
//
// The loop owns the uniform semantics all engines share:
//   pop -> skip covered (subsumed) states -> visit -> count explored ->
//   stop on kStop -> truncate when SearchLimits::reached(store.size()) or
//   the Budget gives out -> expand.
// In particular the truncation check sits after the visit of the popped
// state and before its expansion, so every engine reports its StopReason
// identically and never half-expands a state. Budget polling (the only
// clock read) is amortized to every kBudgetPollStride expansions — except
// the very first, which polls immediately so an already-expired deadline is
// detected deterministically even on tiny models.
// A paced search (SearchLimits::pace > 0) sleeps `pace` after each
// counted visit; an unpaced one never sleeps. On return, stats.store holds
// the store's occupancy snapshot.
#pragma once

#include <functional>
#include <thread>
#include <utility>

#include "core/search.h"
#include "core/state_store.h"
#include "core/worklist.h"

namespace quanta::core {

/// Verdict of the visit callback for the state just popped.
enum class Visit {
  kContinue,  ///< keep exploring: expand this state
  kSkip,      ///< drop silently (stale priority entry); not counted explored
  kStop,      ///< search done (goal found / violation): counted, not expanded
};

/// Expansions between two Budget polls. One steady_clock read per stride
/// keeps the deadline/memory-check overhead on the hot loop under the noise
/// floor (bench/bench_budget_overhead.cpp).
inline constexpr std::size_t kBudgetPollStride = 64;

/// Snapshot hook; the store engines get theirs from ckpt::StoreChain
/// (src/ckpt/store_chain.h). The sink fires when a resource bound (state
/// limit or Budget) stops the search, and — when `interval` is non-zero —
/// every `interval` explored states, so even a SIGKILL loses at most one
/// interval of work. It always fires at the one consistent point
/// of the loop: `pending` has been popped and goal-tested but NOT expanded,
/// and `stats.states_explored` already counts its visit. A resumable
/// snapshot must therefore re-queue `pending` as the next state to pop and
/// record `states_explored - 1`, so the resumed run re-visits it exactly
/// once and interrupted + resumed totals equal an uninterrupted run's.
struct CheckpointHook {
  std::size_t interval = 0;
  std::function<void(const SearchStats&, const Worklist::Entry& pending)> sink;
};

template <typename Store, typename VisitFn, typename ExpandFn>
SearchStats explore(Store& store, Worklist& work, const SearchLimits& limits,
                    VisitFn&& visit, ExpandFn&& expand,
                    const CheckpointHook* checkpoint = nullptr) {
  SearchStats stats;
  const common::Budget& budget = limits.budget;
  const bool governed = budget.active();
  const bool paced = limits.pace.count() > 0;
  const bool snapshotting = checkpoint != nullptr && checkpoint->sink;
  std::size_t poll_in = 1;  // first expansion polls; then every stride
  std::size_t snap_in = snapshotting ? checkpoint->interval : 0;
  while (!work.empty()) {
    const Worklist::Entry entry = work.pop();
    if (store.covered(entry.id)) continue;
    const Visit verdict = visit(entry);
    if (verdict == Visit::kSkip) continue;
    ++stats.states_explored;
    if (paced) std::this_thread::sleep_for(limits.pace);
    if (verdict == Visit::kStop) break;
    if (limits.reached(store.size())) {
      stats.stop_for(common::StopReason::kStateLimit);
      if (snapshotting) checkpoint->sink(stats, entry);
      break;
    }
    if (governed && --poll_in == 0) {
      poll_in = kBudgetPollStride;
      const common::StopReason r = budget.poll(store.memory_bytes());
      if (r != common::StopReason::kCompleted) {
        stats.stop_for(r);
        if (snapshotting) checkpoint->sink(stats, entry);
        break;
      }
    }
    if (snap_in != 0 && --snap_in == 0) {
      snap_in = checkpoint->interval;
      checkpoint->sink(stats, entry);
    }
    stats.transitions += expand(entry);
  }
  stats.states_stored = store.size();
  stats.store = store.metrics();
  return stats;
}

}  // namespace quanta::core
