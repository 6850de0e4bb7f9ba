// Direct library calls the benchmark makes: the paper experiments of the
// paper-batch workload, the references the svc workloads check answers
// against, and the instrumented exploration replay behind the ta.* /
// core.* / store.* split. Each call builds its model inside (QComp style:
// wall time includes model construction) and, given a span log, records a
// "models.build" span and one span named after the module it calls.
#pragma once

#include <cstdint>

#include "bench.h"
#include "common/verdict.h"
#include "core/state_store.h"
#include "exec/telemetry.h"
#include "smc/estimate.h"
#include "svc/request.h"

namespace perfbench {

/// The engine-uniform counters of one symbolic search, mapped onto the
/// service's response fields the way src/svc/registry.h documents.
struct SearchOutcome {
  quanta::common::Verdict verdict = quanta::common::Verdict::kUnknown;
  quanta::common::StopReason stop = quanta::common::StopReason::kCompleted;
  std::uint64_t stored = 0;
  std::uint64_t explored = 0;
  std::uint64_t transitions = 0;
  std::int64_t extra = 0;  ///< cora: optimal cost; game: winning states
};

/// Where a direct call records its spans (log may be null: untraced).
struct SpanSite {
  SpanLog* log = nullptr;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// A[] at most one train crossing, on train-gate-<n> (E1 with n = 5).
SearchOutcome mc_mutex(int n, SpanSite site = {});
/// Min-cost reach of train 0 crossing, Appr/Stop rate 1 (E8 with n = 4).
SearchOutcome cora_mincost(int n, SpanSite site = {});
/// TIGA reachability of train 0 crossing on train-game-<n> (E2 with n = 2).
SearchOutcome game_reach(int n, SpanSite site = {});
/// Pr[<= 100](<> train 0 crossing) on train-gate-<n> with `runs` runs on
/// the global executor (E3 with n = 4, 20k runs).
quanta::smc::Estimate smc_cross(int n, std::uint64_t runs, std::uint64_t seed,
                                quanta::exec::RunTelemetry* telemetry,
                                SpanSite site = {});

/// E4, the BRP mcpta column: both digital MDPs, then P1, Dmax and Emax.
struct BrpValues {
  int mdp_states = 0;
  double p1 = 0.0;
  double p1_analytic = 0.0;
  double dmax = 0.0;
  double emax = 0.0;
  bool converged = false;
};
BrpValues brp_mcpta(SpanSite site = {});

/// Canonical response of a symbolic job / an SMC estimate: the bytes a
/// cold, uncached service answer must carry.
quanta::svc::Response response_of(const SearchOutcome& o);
quanta::svc::Response response_of(const quanta::smc::Estimate& e);

/// core::explore over a StateStore<ta::SymState>, re-running mc_mutex(n)
/// outside the engine so every successors() and intern() call is timed.
struct ReplayOutcome {
  std::uint64_t stored = 0;
  std::uint64_t explored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t intern_calls = 0;
  std::uint64_t interns_inserted = 0;
  std::uint64_t succ_calls = 0;
  double succ_s = 0.0;    ///< summed self time of successors()
  double intern_s = 0.0;  ///< summed self time of intern()
  quanta::core::StoreMetrics store;
};
ReplayOutcome replay_mc_mutex(int n, SpanLog* log);

/// Adds the replay's ta.* / core.* / store.* metrics to `r` if the replay
/// reproduced `engine` exactly; otherwise records the mismatch and marks
/// the split withheld.
void report_replay(const ReplayOutcome& rep, const SearchOutcome& engine,
                   Result* r);

}  // namespace perfbench
