// Model-based testing walkthrough (§V): from an LTS specification of a
// publish/subscribe software bus to (1) an offline ioco conformance verdict,
// (2) automatically generated and executed test campaigns with verdicts, and
// (3) online timed testing of a black box against a TA spec (TRON-style).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "mbt/execute.h"
#include "mbt/ioco.h"
#include "mbt/rtioco.h"
#include "models/mbt_models.h"

using namespace quanta;
using namespace quanta::mbt;

int main() {
  Lts spec = models::make_swb_spec();
  std::printf("software-bus spec: %d states, %d labels\n", spec.state_count(),
              spec.label_count());

  // ---- 1. Offline conformance: is this implementation ioco-correct? -------
  Lts good = models::make_swb_impl();
  Lts bad = models::make_swb_mutant_missing_notify();
  auto r_good = check_ioco(good, spec);
  auto r_bad = check_ioco(bad, spec);
  std::printf("\n[ioco] conforming impl : %s\n",
              r_good.conforms ? "conforms" : "FAILS");
  std::printf("[ioco] dropped-notify  : %s", r_bad.conforms ? "conforms?!" : "fails");
  if (!r_bad.conforms) {
    std::printf(" — after <");
    for (std::size_t i = 0; i < r_bad.trace.size(); ++i) {
      std::printf("%s%s", i ? "," : "", r_bad.trace[i].c_str());
    }
    std::printf("> the spec forbids '%s'\n", r_bad.offending.c_str());
  }

  // ---- 2. Generated test campaigns ----------------------------------------
  std::printf("\n[testgen] 200 randomized test cases per implementation:\n");
  struct Entry {
    const char* name;
    Lts lts;
  };
  // Test generation shares out over the executor; the suite is the same at
  // every worker count.
  exec::Executor ex(std::max(1u, std::thread::hardware_concurrency()));
  for (auto& e : {Entry{"conforming impl", models::make_swb_impl()},
                  Entry{"wrong-output mutant", models::make_swb_mutant_wrong_output()},
                  Entry{"dropped-notify mutant", models::make_swb_mutant_missing_notify()},
                  Entry{"unsolicited mutant", models::make_swb_mutant_unsolicited_notify()}}) {
    LtsIut iut(e.lts, 1);
    auto campaign = run_campaign(spec, iut, 200, 2, ex);
    std::printf("  %-22s : %3zu/%zu tests failed -> verdict %s\n", e.name,
                campaign.failures, campaign.tests,
                campaign.passed() ? "PASS" : "FAIL");
  }

  // ---- 3. Online timed testing (rtioco / TRON) -----------------------------
  std::printf("\n[rtioco] online sessions against the timed light spec\n"
              "  (press? -> on! within [1,3]; press? -> off! within [0,2]):\n");
  auto timed_spec = models::make_timed_light_spec();
  struct TEntry {
    const char* name;
    TimedSpec model;
  };
  for (auto& e : {TEntry{"conforming light", models::make_timed_light_spec()},
                  TEntry{"too-late mutant", models::make_timed_light_late_mutant()},
                  TEntry{"wrong-action mutant",
                         models::make_timed_light_wrong_action_mutant()}}) {
    int pass = 0;
    OnlineVerdict worst = OnlineVerdict::kPass;
    for (int s = 0; s < 25; ++s) {
      TimedSystemIut iut(e.model, static_cast<std::uint64_t>(s));
      auto r = rtioco_online_test(timed_spec, iut, static_cast<std::uint64_t>(s));
      if (r.verdict == OnlineVerdict::kPass) {
        ++pass;
      } else {
        worst = r.verdict;
      }
    }
    const char* why = worst == OnlineVerdict::kFailDeadline ? "missed deadline"
                      : worst == OnlineVerdict::kFailOutput ? "illegal output"
                      : worst == OnlineVerdict::kFailRefusal ? "input refused"
                                                             : "-";
    std::printf("  %-22s : %2d/25 sessions passed%s%s\n", e.name, pass,
                pass == 25 ? "" : ", first failure: ", pass == 25 ? "" : why);
  }
  return 0;
}
