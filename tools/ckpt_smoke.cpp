// Crash/resume smoke driver for CI: runs one long-running engine with
// periodic (delta) checkpointing and prints a one-line machine-readable
// result. The CI job SIGKILLs a throttled run mid-flight, asserts the
// checkpoint file exists, reruns to completion and compares the verdict +
// statistics against an uninterrupted reference run.
//
//   ckpt_smoke [--engine mc|live|game|cora] [--checkpoint PATH] [--trains N]
//              [--interval K] [--throttle-us U] [--no-resume]
//
//   --engine E         which engine to drive (default mc):
//                        mc    train-gate mutual-exclusion invariant
//                        live  train-gate leads-to (Appr --> Cross of train 0)
//                        game  train-game reachability synthesis (TIGA)
//                        cora  train-gate min-cost reachability (CORA)
//   --checkpoint PATH  checkpoint file ("" disables checkpointing)
//   --trains N         model size in trains (default 4; game defaults to 2)
//   --interval K       periodic snapshot cadence in explored states (def. 200)
//   --throttle-us U    sleep U microseconds per explored state, stretching
//                      the run so a signal can land mid-flight (default 0,
//                      at most 1000000)
//   --no-resume        ignore any existing checkpoint (reference mode)
//
// Output: "resumed=<0|1> load=<status> verdict=<v> stored=<n> explored=<n>
// transitions=<n> extra=<n>" on stdout; `extra` is engine-specific (winning
// states for game, optimal cost for cora, 0 for mc and live). Exit 0 on a
// definite verdict, 3 on kUnknown, 1 on usage errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/budget.h"
#include "common/env.h"
#include "common/pred.h"
#include "cora/priced.h"
#include "game/tiga.h"
#include "mc/liveness.h"
#include "mc/reachability.h"
#include "models/train_game.h"
#include "models/train_gate.h"

using namespace quanta;

namespace {

const char* verdict_name(common::Verdict v) {
  switch (v) {
    case common::Verdict::kHolds: return "holds";
    case common::Verdict::kViolated: return "violated";
    case common::Verdict::kUnknown: return "unknown";
  }
  return "?";
}

struct Line {
  ckpt::ResumeInfo resume;
  common::Verdict verdict = common::Verdict::kUnknown;
  core::SearchStats stats;
  long long extra = 0;
};

int report(const Line& l) {
  std::printf("resumed=%d load=%s verdict=%s stored=%zu explored=%zu "
              "transitions=%zu extra=%lld\n",
              l.resume.resumed ? 1 : 0, ckpt::to_string(l.resume.load),
              verdict_name(l.verdict), l.stats.states_stored,
              l.stats.states_explored, l.stats.transitions, l.extra);
  return l.verdict == common::Verdict::kUnknown ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string engine = "mc";
  std::string path;
  std::uint64_t trains = 4;
  std::uint64_t interval = 200;
  std::uint64_t throttle_us = 0;
  bool resume = true;
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ckpt_smoke: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    auto need_u64 = [&](const char* flag) {
      const char* s = need(flag);
      const auto v = common::parse_u64(s);
      if (!v) {
        std::fprintf(stderr, "ckpt_smoke: %s: not a decimal number: %s\n",
                     flag, s);
        std::exit(1);
      }
      return *v;
    };
    if (std::strcmp(argv[i], "--engine") == 0) {
      engine = need("--engine");
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      path = need("--checkpoint");
    } else if (std::strcmp(argv[i], "--trains") == 0) {
      trains = need_u64("--trains");
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      interval = need_u64("--interval");
    } else if (std::strcmp(argv[i], "--throttle-us") == 0) {
      throttle_us = need_u64("--throttle-us");
    } else if (std::strcmp(argv[i], "--no-resume") == 0) {
      resume = false;
    } else {
      std::fprintf(stderr, "ckpt_smoke: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (engine != "mc" && engine != "live" && engine != "game" &&
      engine != "cora") {
    std::fprintf(stderr,
                 "ckpt_smoke: --engine must be mc, live, game or cora\n");
    return 1;
  }
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  if (trains < 2 || trains > kIntMax) {
    std::fprintf(stderr, "ckpt_smoke: --trains must be >= 2 (and fit an int)\n");
    return 1;
  }
  const int n = static_cast<int>(trains);
  if (throttle_us > static_cast<std::uint64_t>(
                        core::SearchLimits::kMaxPace.count())) {
    std::fprintf(stderr,
                 "ckpt_smoke: --throttle-us must be at most %lld (one second "
                 "per explored state)\n",
                 static_cast<long long>(core::SearchLimits::kMaxPace.count()));
    return 1;
  }

  ckpt::Options checkpoint;
  checkpoint.path = path;
  checkpoint.resume = resume;
  checkpoint.interval = interval;
  core::SearchLimits limits;
  limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
  limits.pace = std::chrono::microseconds(throttle_us);
  Line line;

  if (engine == "mc") {
    auto tg = models::make_train_gate(n);
    mc::ReachOptions opts;
    opts.record_trace = false;
    opts.limits = limits;
    opts.checkpoint = checkpoint;
    const auto r =
        mc::check_invariant(tg.system, models::train_gate_mutex(tg), opts);
    line = {r.resume, r.verdict, r.stats, 0};
  } else if (engine == "live") {
    auto tg = models::make_train_gate(n);
    mc::ReachOptions opts;
    opts.limits = limits;
    opts.checkpoint = checkpoint;
    const auto r = mc::check_leads_to(
        tg.system, mc::loc_pred(tg.system, "Train(0)", "Appr"),
        mc::loc_pred(tg.system, "Train(0)", "Cross"), opts);
    line = {r.resume, r.verdict, r.stats, 0};
  } else if (engine == "game") {
    // Reachability objectives need train 0 already approaching (from all-Safe
    // the environment may simply never send a train); 2 trains keeps the
    // digital-clocks game graph at CI-smoke scale.
    auto tg = models::make_train_game(
        {.num_trains = std::min(n, 2), .first_train_approaching = true});
    const auto goal =
        common::loc_index_pred<ta::DigitalState>(tg.trains[0], tg.l_cross);
    game::TimedGame g(tg.system, limits, checkpoint);
    const auto r = g.solve_reachability(goal);
    line = {r.resume, r.verdict, r.stats,
            static_cast<long long>(r.winning_states)};
  } else {
    auto tg = models::make_train_gate(n);
    cora::PriceModel prices(tg.system);
    for (int t : tg.trains) {
      const auto& proc = tg.system.process(t);
      prices.set_location_rate(t, proc.location_index("Appr"), 1);
      prices.set_location_rate(t, proc.location_index("Stop"), 1);
    }
    const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
    const auto goal =
        common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);
    cora::MinCostOptions opts;
    opts.limits = limits;
    opts.checkpoint = checkpoint;
    const auto r = cora::min_cost_reachability(tg.system, prices, goal, opts);
    line = {r.resume, r.verdict, r.stats, static_cast<long long>(r.cost)};
  }
  return report(line);
}
