// Experiment E1 — §II.A.a: verification of the train-gate model. For each
// instance size, check the paper's three property groups (safety, liveness
// per train, deadlock freedom) and report state counts and times.
#include <cstdio>

#include "bench_util.h"
#include "mc/query.h"
#include "models/train_gate.h"

using namespace quanta;

int main() {
  bench::section("E1: UPPAAL-style verification of the train-gate (Fig. 1)");

  bench::Table table({"N", "safety A[]", "liveness -->", "no deadlock",
                      "states", "time [s]"});
  for (int n = 1; n <= 6; ++n) {
    auto tg = models::make_train_gate(n);
    bench::Stopwatch sw;

    auto safety = mc::check_invariant(tg.system, models::train_gate_mutex(tg));

    // Liveness explores the full zone graph without subsumption and deadlock
    // checking subtracts zone federations per state; both are kept to the
    // sizes where they finish in seconds (the verdicts do not change).
    std::string liveness = "-";
    if (n <= 4) {
      bool holds = true;
      for (int i = 0; i < n && holds; ++i) {
        std::string name = "Train(" + std::to_string(i) + ")";
        auto r = mc::check_leads_to(tg.system,
                                    mc::loc_pred(tg.system, name, "Appr"),
                                    mc::loc_pred(tg.system, name, "Cross"));
        holds = r.holds();
      }
      liveness = holds ? "true" : "FALSE";
    }

    std::string deadlock = "-";
    if (n <= 5) {
      deadlock = mc::check_deadlock_freedom(tg.system).deadlock_free()
                     ? "true"
                     : "FALSE";
    }

    table.row({std::to_string(n), safety.holds() ? "true" : "FALSE", liveness,
               deadlock, std::to_string(safety.stats.states_stored),
               bench::fmt(sw.seconds(), "%.2f")});
  }
  table.print();
  std::printf("\n  expected (paper): all three properties hold for all N.\n");
  return 0;
}
