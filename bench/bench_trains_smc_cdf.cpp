// Experiment E3 — the paper's Fig. 4: "Cumulative probability distribution
// for the trains to cross in function of time". For each train i (rate
// 1+i in Safe), estimate Pr[<=100](<> Train(i).Cross) and print the CDF
// series over the same time grid as the figure (10, 22, 34, ..., 94).
#include <cstdio>

#include "bench_util.h"
#include "models/train_gate.h"
#include "smc/cdf.h"
#include "smc/estimate.h"

using namespace quanta;

int main() {
  bench::section("Fig. 4: CDF of crossing times, 6 trains, rates 1+id");
  const int kTrains = 6;
  const std::size_t kRuns = 4000;
  const double kHorizon = 100.0;
  const int kPoints = 51;  // grid step 2

  auto tg = models::make_train_gate(kTrains);
  exec::Executor ex(bench::hardware_workers());
  bench::Stopwatch total;

  std::vector<smc::CdfSeries> series;
  std::vector<double> final_prob;
  for (int i = 0; i < kTrains; ++i) {
    int p = tg.trains[static_cast<std::size_t>(i)];
    int cross = tg.system.process(p).location_index("Cross");
    smc::TimeBoundedReach prop;
    prop.time_bound = kHorizon;
    prop.goal = [p, cross](const ta::ConcreteState& s) {
      return s.locs[static_cast<std::size_t>(p)] == cross;
    };
    auto times =
        smc::sample_hit_times(tg.system, prop, kRuns,
                              0xF16'4000 + static_cast<std::uint64_t>(i), ex, {})
            .times;
    series.push_back(smc::empirical_cdf(times, kRuns, kHorizon, kPoints));
    final_prob.push_back(series.back().prob.back());
  }

  // The figure's x axis: 10, 22, 34, 46, 58, 70, 82, 94.
  bench::Table table({"t", "Train 0", "Train 1", "Train 2", "Train 3",
                      "Train 4", "Train 5"});
  for (int t = 10; t <= 94; t += 12) {
    std::vector<std::string> row{std::to_string(t)};
    int idx = t / 2;  // grid step 2
    for (int i = 0; i < kTrains; ++i) {
      row.push_back(bench::fmt(series[static_cast<std::size_t>(i)]
                                   .prob[static_cast<std::size_t>(idx)],
                               "%.3f"));
    }
    table.row(std::move(row));
  }
  table.print();

  std::printf("\n  shape checks (paper): higher-rate trains cross sooner;\n"
              "  all CDFs approach 1 by t=100:\n");
  bool ordered = true;
  for (int i = 0; i + 1 < kTrains; ++i) {
    // Compare at t=22 (early regime) with slack for sampling noise.
    double lo = series[static_cast<std::size_t>(i)].prob[11];
    double hi = series[static_cast<std::size_t>(i + 1)].prob[11];
    if (hi + 0.05 < lo) ordered = false;
  }
  std::printf("    rate ordering at t=22: %s\n", ordered ? "OK" : "VIOLATED");
  for (int i = 0; i < kTrains; ++i) {
    std::printf("    Pr[<=100](<> Train(%d).Cross) ~= %.3f\n", i,
                final_prob[static_cast<std::size_t>(i)]);
  }
  std::printf("  %zu runs per train, total %.2fs\n", kRuns, total.seconds());
  return 0;
}
