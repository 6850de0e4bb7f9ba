// Ablation A3 — statistical model checking: confidence-interval width vs
// sample count (Chernoff-Hoeffding planning vs realized Clopper-Pearson
// width) and sequential (SPRT) vs fixed-size testing, on a train-gate query
// with an SMC-estimated reference value.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "models/train_gate.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

using namespace quanta;

int main() {
  bench::section("A3a: sample count vs confidence-interval width");
  auto tg = models::make_train_gate(3);
  int p = tg.trains[0];
  int cross = tg.system.process(p).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = 30.0;
  prop.goal = [p, cross](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == cross;
  };

  exec::Executor ex(bench::hardware_workers());
  bench::Table widths({"runs", "p_hat", "CI (95%)", "width", "time [s]"});
  for (std::size_t runs : {100u, 1000u, 10000u, 40000u}) {
    bench::Stopwatch sw;
    auto est = smc::estimate_probability_runs(tg.system, prop, runs, 0.05,
                                              runs * 31 + 7, ex);
    widths.row({std::to_string(runs), bench::fmt(est.p_hat, "%.4f"),
                "[" + bench::fmt(est.ci_low, "%.4f") + ", " +
                    bench::fmt(est.ci_high, "%.4f") + "]",
                bench::fmt(est.ci_high - est.ci_low, "%.4f"),
                bench::fmt(sw.seconds(), "%.2f")});
  }
  widths.print();

  bench::section("A3b: Chernoff-Hoeffding planned sample sizes");
  bench::Table chern({"epsilon", "delta", "planned runs"});
  for (double eps : {0.05, 0.02, 0.01}) {
    for (double delta : {0.05, 0.01}) {
      chern.row({bench::fmt(eps, "%.2f"), bench::fmt(delta, "%.2f"),
                 std::to_string(common::chernoff_sample_count(eps, delta))});
    }
  }
  chern.print();

  bench::section("A3c: SPRT vs fixed-size estimation");
  auto ref =
      smc::estimate_probability_runs(tg.system, prop, 20000, 0.05, 99, ex);
  std::printf("  reference estimate: p ~= %.4f (20000 runs)\n\n", ref.p_hat);
  bench::Table sprt_table({"H0: p >= theta", "verdict", "runs used",
                           "fixed-N equivalent"});
  std::size_t fixed_n = common::chernoff_sample_count(0.02, 0.05);
  for (double theta : {ref.p_hat - 0.15, ref.p_hat - 0.05, ref.p_hat + 0.05,
                       ref.p_hat + 0.15}) {
    smc::SprtOptions opts;
    opts.indifference = 0.02;
    auto r = smc::sprt_test(tg.system, prop, theta, opts,
                            static_cast<std::uint64_t>(theta * 1e4), ex);
    const char* verdict = r.verdict == smc::SprtVerdict::kAccepted ? "accept"
                          : r.verdict == smc::SprtVerdict::kRejected
                              ? "reject"
                              : "inconclusive";
    sprt_table.row({bench::fmt(theta, "%.3f"), verdict,
                    std::to_string(r.runs), std::to_string(fixed_n)});
  }
  sprt_table.print();
  std::printf("\n  expected: SPRT needs far fewer runs than the fixed-size\n"
              "  bound when the true probability is far from theta.\n");
  return 0;
}
