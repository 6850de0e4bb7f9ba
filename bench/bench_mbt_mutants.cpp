// Experiment E7 — §V: model-based testing of the software-bus protocol.
// Reports the ioco verdicts for the conforming implementation and three
// mutants, mutant kill rates as a function of test-suite size (soundness +
// growing exhaustiveness), and online timed testing (rtioco/TRON) verdicts.
#include <cstdio>

#include "bench_util.h"
#include "mbt/execute.h"
#include "mbt/ioco.h"
#include "mbt/rtioco.h"
#include "models/mbt_models.h"

using namespace quanta;
using namespace quanta::mbt;

int main() {
  bench::section("E7a: ioco verdicts (offline conformance checking)");
  Lts spec = models::make_swb_spec();
  struct Impl {
    const char* name;
    Lts lts;
  };
  std::vector<Impl> impls;
  impls.push_back({"conforming impl", models::make_swb_impl()});
  impls.push_back({"mutant: err instead of notify",
                   models::make_swb_mutant_wrong_output()});
  impls.push_back({"mutant: notify dropped",
                   models::make_swb_mutant_missing_notify()});
  impls.push_back({"mutant: unsolicited notify",
                   models::make_swb_mutant_unsolicited_notify()});

  bench::Table ioco_table({"implementation", "ioco?", "witness"});
  for (const auto& impl : impls) {
    auto r = check_ioco(impl.lts, spec);
    std::string witness = "-";
    if (!r.conforms) {
      witness = "after <";
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        if (i) witness += ",";
        witness += r.trace[i];
      }
      witness += "> output '" + r.offending + "' not allowed";
    }
    ioco_table.row({impl.name, r.conforms ? "yes" : "no", witness});
  }
  ioco_table.print();

  bench::section("E7b: random test campaigns (kill rate vs suite size)");
  bench::Table camp({"implementation", "10 tests", "50 tests", "250 tests"});
  exec::Executor ex(bench::hardware_workers());
  for (const auto& impl : impls) {
    std::vector<std::string> row{impl.name};
    for (std::size_t n : {10u, 50u, 250u}) {
      LtsIut iut(impl.lts, 0xBEEF + n);
      auto r = run_campaign(spec, iut, n, 0xCAFE + n, ex);
      row.push_back(std::to_string(r.failures) + "/" + std::to_string(r.tests) +
                    " failed");
    }
    camp.row(std::move(row));
  }
  camp.print();
  std::printf("\n  expected: 0 failures for the conforming implementation\n"
              "  (soundness); all mutants killed as the suite grows.\n");

  bench::section("E7c: rtioco online timed testing (UPPAAL-TRON style)");
  auto timed_spec = models::make_timed_light_spec();
  struct TimedImpl {
    const char* name;
    mbt::TimedSpec model;
  };
  std::vector<TimedImpl> timed{
      {"conforming light", models::make_timed_light_spec()},
      {"mutant: responds too late", models::make_timed_light_late_mutant()},
      {"mutant: wrong action", models::make_timed_light_wrong_action_mutant()},
  };
  bench::Table online({"implementation", "sessions", "pass", "fail (output)",
                       "fail (deadline)"});
  for (const auto& t : timed) {
    int pass = 0, fail_out = 0, fail_dl = 0;
    const int kSessions = 40;
    for (int s = 0; s < kSessions; ++s) {
      TimedSystemIut iut(t.model, static_cast<std::uint64_t>(s));
      auto r = rtioco_online_test(timed_spec, iut,
                                  static_cast<std::uint64_t>(1000 + s));
      switch (r.verdict) {
        case OnlineVerdict::kPass:
          ++pass;
          break;
        case OnlineVerdict::kFailDeadline:
          ++fail_dl;
          break;
        default:
          ++fail_out;
          break;
      }
    }
    online.row({t.name, std::to_string(kSessions), std::to_string(pass),
                std::to_string(fail_out), std::to_string(fail_dl)});
  }
  online.print();
  std::printf("\n  expected: the conforming light always passes; mutants are\n"
              "  rejected by output or deadline violations.\n");
  return 0;
}
