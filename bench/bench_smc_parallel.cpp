// Parallel SMC scaling sweep (src/exec): throughput of the train-gate
// probability estimate and the BRP SPRT across worker counts, checking that
// the estimates stay bit-identical while the wall clock drops. Emits the
// usual table plus one machine-readable JSON line per configuration.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "exec/executor.h"
#include "models/brp.h"
#include "models/train_gate.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

using namespace quanta;
using bench::fmt;

namespace {

const char* verdict_name(smc::SprtVerdict v) {
  switch (v) {
    case smc::SprtVerdict::kAccepted: return "accept";
    case smc::SprtVerdict::kRejected: return "reject";
    case smc::SprtVerdict::kInconclusive: return "inconclusive";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("  hardware threads: %u (each row names its executor size)\n",
              bench::hardware_workers());

  // ---- train-gate probability estimate -----------------------------------
  bench::section("parallel SMC: train-gate Pr[<=30](<> Train(0).Cross)");
  auto tg = models::make_train_gate(3);
  int p = tg.trains[0];
  int cross = tg.system.process(p).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = 30.0;
  prop.goal = [p, cross](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == cross;
  };

  const std::size_t kRuns = 20000;
  const std::uint64_t kSeed = 20120312;
  bench::Table est_table({"workers", "p_hat", "hits", "time [s]", "runs/s",
                          "speedup", "parallelism"});
  double t1 = 0.0;
  smc::Estimate ref;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    exec::Executor ex(workers);
    exec::RunTelemetry tel;
    bench::Stopwatch sw;
    auto est = smc::estimate_probability_runs(tg.system, prop, kRuns, 0.05,
                                              kSeed, ex, &tel);
    double t = sw.seconds();
    if (workers == 1) {
      t1 = t;
      ref = est;
    }
    const bool identical = est.hits == ref.hits && est.p_hat == ref.p_hat &&
                           est.ci_low == ref.ci_low &&
                           est.ci_high == ref.ci_high;
    est_table.row({std::to_string(workers),
                   fmt(est.p_hat, "%.4f") + (identical ? "" : " MISMATCH"),
                   std::to_string(est.hits), fmt(t, "%.3f"),
                   fmt(tel.runs_per_second(), "%.0f"), fmt(t1 / t, "%.2f"),
                   fmt(tel.parallelism(), "%.2f")});
    std::printf(
        "  {\"bench\":\"traingate_estimate\",\"workers\":%u,\"runs\":%zu,"
        "\"p_hat\":%.6f,\"hits\":%zu,\"seconds\":%.4f,\"runs_per_sec\":%.0f,"
        "\"speedup\":%.3f,\"bit_identical\":%s}\n",
        workers, kRuns, est.p_hat, est.hits, t, tel.runs_per_second(), t1 / t,
        identical ? "true" : "false");
  }
  est_table.print();

  // ---- BRP SPRT -----------------------------------------------------------
  bench::section("parallel SMC: BRP SPRT  H0: Pr[<=64](<> success) >= 0.9");
  auto brp = models::make_brp();
  smc::TimeBoundedReach dprop;
  dprop.time_bound = 64.0;
  dprop.goal = [&brp](const ta::ConcreteState& s) {
    return brp.is_success(s.locs);
  };
  smc::SprtOptions opts;
  opts.indifference = 0.02;
  opts.max_runs = 100'000;

  bench::Table sprt_table(
      {"workers", "verdict", "runs", "time [s]", "speedup"});
  double sprt_t1 = 0.0;
  smc::SprtResult sprt_ref;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    exec::Executor ex(workers);
    bench::Stopwatch sw;
    auto r = smc::sprt_test(brp.system, dprop, 0.9, opts, 7, ex);
    double t = sw.seconds();
    if (workers == 1) {
      sprt_t1 = t;
      sprt_ref = r;
    }
    const bool identical =
        r.verdict == sprt_ref.verdict && r.runs == sprt_ref.runs;
    sprt_table.row({std::to_string(workers),
                    std::string(verdict_name(r.verdict)) +
                        (identical ? "" : " MISMATCH"),
                    std::to_string(r.runs), fmt(t, "%.3f"),
                    fmt(sprt_t1 / t, "%.2f")});
    std::printf(
        "  {\"bench\":\"brp_sprt\",\"workers\":%u,\"verdict\":\"%s\","
        "\"runs\":%zu,\"seconds\":%.4f,\"speedup\":%.3f,"
        "\"bit_identical\":%s}\n",
        workers, verdict_name(r.verdict), r.runs, t, sprt_t1 / t,
        identical ? "true" : "false");
  }
  sprt_table.print();
  std::printf(
      "\n  expected: bit-identical results at every worker count; speedup\n"
      "  tracks physical cores (a 1-core container pins it near 1x).\n");
  return 0;
}
