// Quickstart: build a small timed automaton, verify it symbolically, and
// estimate a quantitative property statistically — the two halves of the
// paper's "timing and stochastic aspects" in ~60 lines of API use.
//
//   Worker: Idle --(job?)--> Busy(x<=10) --(x>=2, done!, x:=0)--> Idle
//   Boss:   emits job!, waits for done?.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "exec/executor.h"
#include "mc/query.h"
#include "smc/estimate.h"
#include "ta/model.h"

using namespace quanta;
using namespace quanta::ta;

int main() {
  // ---- 1. Model ----------------------------------------------------------
  System sys;
  int x = sys.add_clock("x");
  int job = sys.add_channel("job");
  int done = sys.add_channel("done");

  ProcessBuilder worker("Worker");
  int w_idle = worker.location("Idle");
  int w_busy = worker.location("Busy", {cc_le(x, 10)});
  worker.edge(w_idle, w_busy, {}, job, SyncKind::kReceive, {{x, 0}});
  worker.edge(w_busy, w_idle, {cc_ge(x, 2)}, done, SyncKind::kSend, {});
  sys.add_process(worker.build());

  ProcessBuilder boss("Boss");
  int b_wait = boss.location("Think", {}, false, false, /*exit_rate=*/0.5);
  int b_blocked = boss.location("Wait");
  boss.edge(b_wait, b_blocked, {}, job, SyncKind::kSend, {});
  boss.edge(b_blocked, b_wait, {}, done, SyncKind::kReceive, {});
  sys.add_process(boss.build());

  // ---- 2. Symbolic verification (UPPAAL-style) ---------------------------
  auto busy = mc::loc_pred(sys, "Worker", "Busy");
  auto r1 = mc::run_query(sys, mc::reach("E<> Worker.Busy", busy));
  auto r2 = mc::run_query(sys, mc::deadlock_free("A[] not deadlock"));
  auto r3 = mc::run_query(
      sys, mc::leads_to("Busy --> Idle", busy, mc::loc_pred(sys, "Worker", "Idle")));
  for (const auto& r : {r1, r2, r3}) {
    std::printf("  %-22s : %s   (%zu states)\n", r.name.c_str(),
                r.holds() ? "satisfied" : "NOT satisfied",
                r.stats.states_stored);
  }

  // ---- 3. Statistical model checking (UPPAAL-SMC-style) ------------------
  // The Boss thinks for an Exp(0.5)-distributed time, the Worker takes a
  // uniform 2..10 to finish. How likely are two finished jobs within 20 time
  // units?
  int finished = sys.vars().declare("finished", 0, 0, 1000);
  // Count completions by attaching an update to the worker's done edge.
  sys.process_mut(0).edges[1].update = [finished](Valuation& v) {
    if (v[finished] < 1000) v[finished] += 1;
  };

  smc::TimeBoundedReach prop;
  prop.time_bound = 20.0;
  prop.goal = [finished](const ConcreteState& s) {
    return s.vars[static_cast<std::size_t>(finished)] >= 2;
  };
  // The runs share out over an executor the caller sizes; the estimate is
  // the same at every worker count.
  exec::Executor ex(std::max(1u, std::thread::hardware_concurrency()));
  auto est = smc::estimate_probability(sys, prop, /*epsilon=*/0.02,
                                       /*delta=*/0.05, /*seed=*/42, ex);
  std::printf(
      "\n  Pr[<=20](<> finished >= 2) ~= %.3f   (95%% CI [%.3f, %.3f], %zu runs)\n",
      est.p_hat, est.ci_low, est.ci_high, est.runs);
  return 0;
}
