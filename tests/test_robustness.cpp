// Robustness of the resource-governance layer: every analysis entry point
// must degrade to a kUnknown verdict — never a wrong definite answer, never
// a crash, leak or poisoned thread pool — when a budget trips (state/time/
// memory/cancellation) or a fault is injected at a named site
// (QUANTA_FAULT / common::FaultInjector). The whole suite must be clean
// under QUANTA_SANITIZE=address and =thread (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bip/explore.h"
#include "ckpt/delta.h"
#include "common/budget.h"
#include "common/fault.h"
#include "common/verdict.h"
#include "cora/priced.h"
#include "ecdar/refinement.h"
#include "exec/executor.h"
#include "exec/watchdog.h"
#include "game/tiga.h"
#include "mc/deadlock.h"
#include "mc/liveness.h"
#include "mc/reachability.h"
#include "mdp/value_iteration.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"
#include "pta/properties.h"
#include "smc/cdf.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

namespace {

using namespace quanta;
using common::Budget;
using common::CancelToken;
using common::FaultInjector;
using common::FaultKind;
using common::StopReason;
using common::Verdict;
using ta::cc_ge;
using ta::cc_le;
using ta::ProcessBuilder;
using ta::SyncKind;

/// Disarms the process-wide injector when a test scope exits, so a failing
/// EXPECT cannot leave a fault armed for the rest of the suite.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::instance().disarm(); }
};

/// The CI fault matrix sets QUANTA_FAULT for the whole test process, which
/// arms the injector at startup. Capture the spec and disarm before any test
/// runs — each test arms its own deterministic faults — then replay it in
/// FaultInjection.EnvSpecDegradesGracefully below.
const std::string kEnvFaultSpec = [] {
  const char* s = std::getenv("QUANTA_FAULT");
  FaultInjector::instance().disarm();
  return std::string(s != nullptr ? s : "");
}();

Budget expired_budget() {
  return Budget{}.with_deadline_at(Budget::Clock::now() -
                                   std::chrono::seconds(1));
}

/// The global soundness invariant: a definite verdict is only ever reported
/// by a run that completed (or found a concrete witness, which also reports
/// kCompleted).
void expect_consistent(Verdict v, StopReason stop) {
  if (v != Verdict::kUnknown) {
    EXPECT_EQ(stop, StopReason::kCompleted)
        << "definite verdict " << common::to_string(v)
        << " from a run stopped by " << common::to_string(stop);
  }
}

mc::StatePredicate never() {
  return [](const ta::SymState&) { return false; };
}

std::function<bool(const ta::DigitalState&)> never_digital() {
  return [](const ta::DigitalState&) { return false; };
}

// ---- verdict / budget vocabulary ------------------------------------------

TEST(Verdict, NegationFlipsOnlyDefiniteAnswers) {
  EXPECT_EQ(common::negate(Verdict::kHolds), Verdict::kViolated);
  EXPECT_EQ(common::negate(Verdict::kViolated), Verdict::kHolds);
  EXPECT_EQ(common::negate(Verdict::kUnknown), Verdict::kUnknown);
}

TEST(BudgetPoll, ChecksCancellationBeforeMemoryBeforeClock) {
  CancelToken token;
  token.cancel();
  Budget b = expired_budget().with_memory_limit(1).with_cancel(&token);
  // All three bounds are violated; the cheapest (cancellation) wins.
  EXPECT_EQ(b.poll(1000), StopReason::kCancelled);
  token.reset();
  EXPECT_EQ(b.poll(1000), StopReason::kMemoryLimit);
  EXPECT_EQ(b.poll(0), StopReason::kTimeLimit);
}

TEST(BudgetPoll, InactiveBudgetNeverTrips) {
  Budget b;
  EXPECT_FALSE(b.active());
  EXPECT_EQ(b.poll(std::size_t{1} << 40), StopReason::kCompleted);
}

TEST(SearchLimits, ZeroStateBoundIsRejectedByName) {
  core::SearchLimits limits{.max_states = 0, .budget = {}};
  try {
    limits.validate("test");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_states"), std::string::npos);
  }
  mc::ReachOptions opts;
  opts.limits.max_states = 0;
  auto sys = models::make_train_gate(2).system;
  EXPECT_THROW(mc::reachable(sys, never(), opts), std::invalid_argument);
}

TEST(SearchLimits, PaceOutsideZeroToOneSecondIsRejectedByName) {
  auto sys = models::make_train_gate(2).system;
  for (const auto pace : {std::chrono::microseconds(-1),
                          core::SearchLimits::kMaxPace +
                              std::chrono::microseconds(1),
                          std::chrono::microseconds::max()}) {
    core::SearchLimits limits;
    limits.pace = pace;
    try {
      limits.validate("test");
      FAIL() << "expected std::invalid_argument for " << pace.count();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("pace"), std::string::npos);
    }
    mc::ReachOptions opts;
    opts.limits.pace = pace;
    EXPECT_THROW(mc::reachable(sys, never(), opts), std::invalid_argument);
  }
  core::SearchLimits at_cap;
  at_cap.pace = core::SearchLimits::kMaxPace;
  EXPECT_NO_THROW(at_cap.validate("test"));
}

TEST(SearchLimits, PaceDelaysEveryExploredState) {
  // Pacing only stretches a search: each paced engine reports the verdict
  // and counters of an unpaced run, and spends at least `pace` per explored
  // state. Only that lower bound on wall time is asserted — a loaded
  // machine may take longer.
  constexpr std::chrono::microseconds kPace{200};
  using Outcome = std::pair<Verdict, core::SearchStats>;
  const auto tg = models::make_train_gate(2);
  const auto tgame = models::make_train_game(
      {.num_trains = 1, .first_train_approaching = true});
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  cora::PriceModel prices(tg.system);
  for (int t : tg.trains) {
    prices.set_location_rate(t, tg.system.process(t).location_index("Appr"), 1);
  }
  const std::vector<
      std::pair<const char*, std::function<Outcome(const core::SearchLimits&)>>>
      engines = {
          {"mc invariant",
           [&](const core::SearchLimits& limits) {
             mc::ReachOptions opts;
             opts.limits = limits;
             const auto r = mc::check_invariant(
                 tg.system, models::train_gate_mutex(tg), opts);
             return Outcome{r.verdict, r.stats};
           }},
          {"mc leads-to",
           [&](const core::SearchLimits& limits) {
             mc::ReachOptions opts;
             opts.limits = limits;
             const auto r = mc::check_leads_to(
                 tg.system, mc::loc_pred(tg.system, "Train(0)", "Appr"),
                 mc::loc_pred(tg.system, "Train(0)", "Cross"), opts);
             return Outcome{r.verdict, r.stats};
           }},
          {"cora",
           [&](const core::SearchLimits& limits) {
             cora::MinCostOptions opts;
             opts.limits = limits;
             const auto r = cora::min_cost_reachability(
                 tg.system, prices,
                 common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross),
                 opts);
             return Outcome{r.verdict, r.stats};
           }},
          {"game",
           [&](const core::SearchLimits& limits) {
             game::TimedGame g(tgame.system, limits);
             const auto r = g.solve_reachability(
                 common::loc_index_pred<ta::DigitalState>(tgame.trains[0],
                                                          tgame.l_cross));
             return Outcome{r.verdict, r.stats};
           }},
      };
  for (const auto& [name, run] : engines) {
    const Outcome plain = run(core::SearchLimits{});
    core::SearchLimits paced;
    paced.pace = kPace;
    const auto start = std::chrono::steady_clock::now();
    const Outcome slow = run(paced);
    const auto wall = std::chrono::steady_clock::now() - start;
    EXPECT_NE(plain.first, Verdict::kUnknown) << name;
    EXPECT_EQ(slow.first, plain.first) << name;
    EXPECT_EQ(slow.second.states_stored, plain.second.states_stored) << name;
    EXPECT_EQ(slow.second.states_explored, plain.second.states_explored)
        << name;
    EXPECT_EQ(slow.second.transitions, plain.second.transitions) << name;
    EXPECT_GT(plain.second.states_explored, 0u) << name;
    EXPECT_GE(wall, kPace * static_cast<std::int64_t>(
                                slow.second.states_explored))
        << name;
  }
}

// ---- symbolic engines: budget exhaustion -> kUnknown ----------------------

TEST(McGoverned, StateLimitGivesUnknownNotNo) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.max_states = 5;
  auto r = mc::reachable(tg.system, never(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kStateLimit);
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_FALSE(r.reachable());
  expect_consistent(r.verdict, r.stop());
}

TEST(McGoverned, ExpiredDeadlineGivesUnknown) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.budget = expired_budget();
  auto r = mc::reachable(tg.system, never(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kTimeLimit);
  expect_consistent(r.verdict, r.stop());
}

TEST(McGoverned, MemoryCeilingGivesUnknown) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.budget = Budget{}.with_memory_limit(64);  // bytes: trips at once
  auto r = mc::reachable(tg.system, never(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kMemoryLimit);
}

TEST(McGoverned, PreCancelledTokenGivesUnknown) {
  auto tg = models::make_train_gate(2);
  CancelToken token;
  token.cancel();
  mc::ReachOptions opts;
  opts.limits.budget = Budget{}.with_cancel(&token);
  auto r = mc::reachable(tg.system, never(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kCancelled);
}

TEST(McGoverned, WitnessFoundBeforeBudgetIsDefinite) {
  // The initial state satisfies the goal: E<> reports kHolds even under the
  // tightest state bound, because the goal test runs before truncation.
  auto tg = models::make_train_gate(2);
  mc::ReachOptions opts;
  opts.limits.max_states = 1;
  auto r = mc::reachable(
      tg.system, [](const ta::SymState&) { return true; }, opts);
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stop(), StopReason::kCompleted);
}

TEST(McGoverned, TruncatedInvariantAndDeadlockAndLivenessAreUnknown) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.max_states = 5;
  auto inv = mc::check_invariant(
      tg.system, [](const ta::SymState&) { return true; }, opts);
  EXPECT_EQ(inv.verdict, Verdict::kUnknown);
  EXPECT_FALSE(inv.holds());  // "truncated is never a definite yes"

  auto dl = mc::check_deadlock_freedom(tg.system, opts);
  EXPECT_EQ(dl.verdict, Verdict::kUnknown);
  EXPECT_FALSE(dl.deadlock_free());

  auto lt = mc::check_leads_to(
      tg.system, never(), [](const ta::SymState&) { return true; }, opts);
  EXPECT_EQ(lt.verdict, Verdict::kUnknown);
  expect_consistent(lt.verdict, lt.stop());
}

// ---- game / cora / ecdar / pta / bip --------------------------------------

ta::System race_game() {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int goal = pb.location("Goal");
  int bad = pb.location("Bad");
  int e = pb.edge(a, goal, {cc_le(x, 2)}, -1, SyncKind::kNone, {});
  pb.edge_ref(e).controllable = true;
  e = pb.edge(a, bad, {cc_ge(x, 4)}, -1, SyncKind::kNone, {});
  pb.edge_ref(e).controllable = false;
  sys.add_process(pb.build());
  return sys;
}

TEST(GameGoverned, TruncatedGameArenaGivesUnknown) {
  ta::System sys = race_game();
  core::SearchLimits limits{.max_states = 1, .budget = {}};
  game::TimedGame g(sys, limits);
  auto goal = [](const ta::DigitalState& s) { return s.locs[0] == 1; };
  auto r = g.solve_reachability(goal);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.controller_wins());
  EXPECT_NE(r.stop(), StopReason::kCompleted);
  auto s = g.solve_safety([](const ta::DigitalState&) { return true; });
  EXPECT_EQ(s.verdict, Verdict::kUnknown);
}

TEST(GameGoverned, ZeroStateBoundRejected) {
  ta::System sys = race_game();
  EXPECT_THROW(
      game::TimedGame(sys, core::SearchLimits{.max_states = 0, .budget = {}}),
      std::invalid_argument);
}

TEST(CoraGoverned, TruncatedCostSearchGivesUnknown) {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pb.edge(a, b, {cc_ge(x, 3)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  cora::PriceModel prices(sys);
  prices.set_location_rate(0, a, 2);

  cora::MinCostOptions opts;
  opts.limits.max_states = 1;
  auto r = cora::min_cost_reachability(sys, prices, never_digital(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.reachable());
  expect_consistent(r.verdict, r.stop());
}

TEST(CoraGoverned, ExpiredDeadlineGivesUnknown) {
  ta::System sys;
  sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  pb.edge(a, a, {}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  cora::PriceModel prices(sys);
  cora::MinCostOptions opts;
  opts.limits.budget = expired_budget();
  auto r = cora::min_cost_reachability(sys, prices, never_digital(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kTimeLimit);
}

/// Spec: on input `req`, emit `grant` within [lo, hi] time units.
ecdar::Tioa responder(int lo, int hi) {
  ecdar::Tioa spec;
  int req = spec.system.add_channel("req");
  int grant = spec.system.add_channel("grant");
  spec.inputs = {req};
  int x = spec.system.add_clock("x");
  ProcessBuilder pb("Resp");
  int idle = pb.location("Idle");
  int busy = pb.location("Busy", {cc_le(x, hi)});
  pb.set_initial(idle);
  pb.edge(idle, busy, {}, req, SyncKind::kReceive, {{x, 0}});
  pb.edge(busy, idle, {cc_ge(x, lo)}, grant, SyncKind::kSend, {});
  spec.system.add_process(pb.build());
  return spec;
}

TEST(EcdarGoverned, TruncatedRefinementGivesUnknown) {
  auto spec = responder(1, 5);
  core::SearchLimits limits{.max_states = 1, .budget = {}};
  auto r = ecdar::check_refinement(spec, spec, limits);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.refines());
  EXPECT_NE(r.stop(), StopReason::kCompleted);
  // Without the bound the same query is a definite yes (reflexivity).
  auto full = ecdar::check_refinement(spec, spec);
  EXPECT_EQ(full.verdict, Verdict::kHolds);
  EXPECT_EQ(full.stop(), StopReason::kCompleted);
}

TEST(PtaGoverned, PropertiesOnTruncatedDigitalMdpAreUnknown) {
  auto tg = models::make_train_gate(2);
  pta::DigitalBuildOptions opts;
  opts.limits.max_states = 3;
  auto dm = pta::build_digital_mdp(tg.system, opts);
  EXPECT_TRUE(dm.truncated);
  EXPECT_EQ(dm.stop, StopReason::kStateLimit);

  // No violation in the explored prefix: the invariant must stay open.
  auto inv = pta::check_invariant(
      dm, [](const ta::DigitalState&) { return true; });
  EXPECT_EQ(inv.verdict, Verdict::kUnknown);
  EXPECT_FALSE(inv.holds());

  // A violation inside the prefix is definite regardless of truncation.
  auto bad = pta::check_invariant(
      dm, [](const ta::DigitalState&) { return false; });
  EXPECT_EQ(bad.verdict, Verdict::kViolated);

  // Numeric answers over a partial state space certify nothing.
  auto p = pta::pmax_reach(
      dm, [](const ta::DigitalState&) { return true; });
  EXPECT_EQ(p.verdict, Verdict::kUnknown);
}

TEST(BipGoverned, TruncatedExplorationGivesUnknown) {
  bip::BipSystem sys;
  {
    bip::Component c("P");
    int a = c.add_place("A");
    int b = c.add_place("B");
    c.add_transition(a, b, -1);
    c.add_transition(b, a, -1);
    c.set_initial(a);
    sys.add_component(std::move(c));
  }
  bip::ExploreOptions opts;
  opts.limits.max_states = 1;
  auto r = bip::explore(sys, opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_EQ(bip::reachable(
                sys, [](const bip::BipState& s) { return s.places[0] == 1; },
                opts),
            Verdict::kUnknown);
}

// ---- mdp: numeric engines -------------------------------------------------

/// 3-state chain with a slow self-loop so plain VI needs many sweeps:
/// 0 --(0.5 -> 1, 0.5 -> 0)--> ..., 1 = goal (absorbing), 2 = sink.
mdp::Mdp slow_chain() {
  mdp::Mdp m;
  m.add_choice(0, {{1, 0.5}, {0, 0.5}}, 0.0);
  m.add_choice(1, {{1, 1.0}}, 0.0);
  m.add_choice(2, {{2, 1.0}}, 0.0);
  m.set_initial(0);
  m.freeze();
  return m;
}

TEST(MdpGoverned, IterationBoundExhaustionIsUnknown) {
  mdp::Mdp m = slow_chain();
  mdp::StateSet goal(3, false);
  goal[1] = true;
  mdp::ViOptions opts;
  opts.max_iterations = 1;
  opts.epsilon = 1e-12;
  opts.use_precomputation = false;  // keep the fixpoint genuinely iterative
  auto r = mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop, StopReason::kStateLimit);
  expect_consistent(r.verdict, r.stop);
}

TEST(MdpGoverned, CancelledValueIterationIsUnknown) {
  mdp::Mdp m = slow_chain();
  mdp::StateSet goal(3, false);
  goal[1] = true;
  CancelToken token;
  token.cancel();
  mdp::ViOptions opts;
  opts.use_precomputation = false;
  opts.budget = Budget{}.with_cancel(&token);
  auto r = mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop, StopReason::kCancelled);
}

TEST(MdpGoverned, ArgumentValidationNamesTheParameter) {
  mdp::Mdp m = slow_chain();
  mdp::StateSet goal(3, false);
  goal[1] = true;
  mdp::ViOptions opts;
  opts.epsilon = 0.0;
  EXPECT_THROW(
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts),
      std::invalid_argument);
  opts.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts),
      std::invalid_argument);
  opts.epsilon = 1e-6;
  opts.max_iterations = 0;
  EXPECT_THROW(
      mdp::reachability_probability(m, goal, mdp::Objective::kMax, opts),
      std::invalid_argument);
  EXPECT_THROW(mdp::bounded_reachability(m, goal, -1, mdp::Objective::kMax),
               std::invalid_argument);
  // A goal set of the wrong size names both sizes.
  try {
    mdp::reachability_probability(m, mdp::StateSet(2, false),
                                  mdp::Objective::kMax);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("2"), std::string::npos);
    EXPECT_NE(msg.find("3"), std::string::npos);
  }
}

// ---- smc: watchdog cancellation + validation ------------------------------

/// One process, exponential rate 1.0 in Init, single edge to Done.
ta::System make_exponential() {
  ta::System sys;
  ProcessBuilder pb("P");
  int init = pb.location("Init", {}, false, false, 1.0);
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  return sys;
}

smc::TimeBoundedReach done_within(const ta::System& sys, double bound) {
  int p = sys.process_index("P");
  int done = sys.process(p).location_index("Done");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, done](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == done;
  };
  return prop;
}

TEST(SmcGoverned, PreCancelledEstimateIsUnknownPartial) {
  ta::System sys = make_exponential();
  CancelToken token;
  token.cancel();
  Budget budget = Budget{}.with_cancel(&token);
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(sys, done_within(sys, 2.0), 10'000,
                                            0.05, 1, ex, nullptr, budget);
  EXPECT_EQ(est.verdict, Verdict::kUnknown);
  EXPECT_EQ(est.stop, StopReason::kCancelled);
  EXPECT_LT(est.completed, est.runs);
  expect_consistent(est.verdict, est.stop);
}

TEST(SmcGoverned, WatchdogDeadlineCutsTheSampleShort) {
  ta::System sys = make_exponential();
  Budget budget = Budget::deadline_after(std::chrono::milliseconds(15));
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(sys, done_within(sys, 2.0),
                                            20'000'000, 0.05, 1, ex, nullptr,
                                            budget);
  EXPECT_EQ(est.verdict, Verdict::kUnknown);
  EXPECT_EQ(est.stop, StopReason::kTimeLimit);
  EXPECT_LT(est.completed, est.runs);
  // The partial tally is still internally consistent.
  EXPECT_LE(est.hits, est.completed);
  EXPECT_GE(est.ci_high, est.ci_low);
}

TEST(SmcGoverned, CompletedEstimateIsDefinite) {
  ta::System sys = make_exponential();
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(sys, done_within(sys, 2.0), 2'000,
                                            0.05, 1, ex);
  EXPECT_EQ(est.verdict, Verdict::kHolds);
  EXPECT_EQ(est.stop, StopReason::kCompleted);
  EXPECT_EQ(est.completed, est.runs);
}

TEST(SmcGoverned, SprtUnderExpiredBudgetIsInconclusive) {
  ta::System sys = make_exponential();
  smc::SprtOptions opts;
  // theta at the true probability (1 - e^-2 ~ 0.865): the Wald walk has no
  // drift, so a boundary crossing before the (already-expired) watchdog
  // fires is essentially impossible.
  exec::Executor ex(2);
  auto r = smc::sprt_test(sys, done_within(sys, 2.0), 0.86, opts, 7, ex,
                          nullptr, expired_budget());
  EXPECT_EQ(r.verdict, smc::SprtVerdict::kInconclusive);
  EXPECT_EQ(r.as_verdict(), Verdict::kUnknown);
  EXPECT_EQ(r.stop, StopReason::kTimeLimit);
}

TEST(SmcGoverned, CancelledHitTimeSamplingIsUnknown) {
  ta::System sys = make_exponential();
  CancelToken token;
  token.cancel();
  Budget budget = Budget{}.with_cancel(&token);
  exec::Executor ex(2);
  auto r = smc::sample_hit_times(sys, done_within(sys, 2.0), 5'000, 1, ex,
                                 budget);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop, StopReason::kCancelled);
  EXPECT_LT(r.completed, r.runs);
  EXPECT_LE(r.times.size(), r.completed);
}

TEST(SmcGoverned, StatisticalParameterValidation) {
  ta::System sys = make_exponential();
  auto prop = done_within(sys, 2.0);
  exec::Executor ex(1);
  for (double alpha : {0.0, 1.0, -0.1, 1.5}) {
    EXPECT_THROW(smc::estimate_probability_runs(sys, prop, 100, alpha, 1, ex),
                 std::invalid_argument)
        << "alpha = " << alpha;
  }
  EXPECT_THROW(smc::estimate_probability_runs(sys, prop, 0, 0.05, 1, ex),
               std::invalid_argument);
  EXPECT_THROW(smc::estimate_probability(sys, prop, 0.0, 0.05, 1, ex),
               std::invalid_argument);
  EXPECT_THROW(smc::estimate_probability(sys, prop, 0.05, 1.0, 1, ex),
               std::invalid_argument);

  smc::SprtOptions opts;
  opts.alpha = 0.0;
  EXPECT_THROW(smc::sprt_test(sys, prop, 0.5, opts, 1, ex),
               std::invalid_argument);
  opts = {};
  opts.max_runs = 0;
  EXPECT_THROW(smc::sprt_test(sys, prop, 0.5, opts, 1, ex),
               std::invalid_argument);
  opts = {};
  // Indifference region [theta - 0.6, theta + 0.6] leaves (0, 1): rejected
  // with the computed interval in the message.
  opts.indifference = 0.6;
  EXPECT_THROW(smc::sprt_test(sys, prop, 0.5, opts, 1, ex),
               std::invalid_argument);

  EXPECT_THROW(
      smc::empirical_cdf({}, /*total_runs=*/10, /*horizon=*/1.0, /*points=*/1),
      std::invalid_argument);
  EXPECT_THROW(
      smc::empirical_cdf({}, /*total_runs=*/10, /*horizon=*/0.0, /*points=*/10),
      std::invalid_argument);
  EXPECT_THROW(
      smc::empirical_cdf({}, /*total_runs=*/0, /*horizon=*/1.0, /*points=*/10),
      std::invalid_argument);
}

// ---- fault injection ------------------------------------------------------

TEST(FaultInjection, SpecParsing) {
  DisarmGuard guard;
  auto& fi = FaultInjector::instance();
  EXPECT_TRUE(fi.arm_from_spec("core.state_store.intern=alloc:500"));
  EXPECT_TRUE(fi.armed());
  EXPECT_EQ(fi.armed_site(), "core.state_store.intern");
  EXPECT_TRUE(fi.arm_from_spec("smc.simulator.step=exception"));
  EXPECT_TRUE(fi.arm_from_spec("exec.thread_pool.chunk=deadline:3"));
  for (const char* bad :
       {"", "nonsense", "site-only=", "a=unknown-kind", "a=alloc:NaN",
        "a=alloc:-1", "a=alloc:99999999999999999999"}) {
    EXPECT_FALSE(fi.arm_from_spec(bad)) << bad;
    EXPECT_FALSE(fi.armed()) << bad;
  }
}

TEST(FaultInjection, StateStoreAllocFailureDegradesToUnknown) {
  DisarmGuard guard;
  auto tg = models::make_train_gate(2);
  FaultInjector::instance().arm("core.state_store.intern", FaultKind::kAlloc,
                                /*after=*/10);
  auto r = mc::reachable(tg.system, never());
  EXPECT_TRUE(FaultInjector::instance().fired());
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kMemoryLimit);

  // Faults fire exactly once: the same (still-armed) injector lets the next
  // run complete, and exhaustive exploration now gives the definite no.
  auto again = mc::reachable(tg.system, never());
  EXPECT_EQ(again.verdict, Verdict::kViolated);
  EXPECT_EQ(again.stop(), StopReason::kCompleted);
}

TEST(FaultInjection, StateStoreWorkerFaultIsKFault) {
  DisarmGuard guard;
  auto tg = models::make_train_gate(2);
  FaultInjector::instance().arm("core.state_store.intern",
                                FaultKind::kException, /*after=*/5);
  auto r = mc::check_invariant(
      tg.system, [](const ta::SymState&) { return true; });
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kFault);
  EXPECT_FALSE(r.holds());
}

TEST(FaultInjection, ForcedDeadlineTripsAnyDeadlinedBudget) {
  DisarmGuard guard;
  // Three trains: enough states that the amortized budget poll (every 64
  // expansions) runs several times after the fault fires.
  auto tg = models::make_train_gate(3);
  FaultInjector::instance().arm("core.state_store.intern",
                                FaultKind::kDeadline, /*after=*/5);
  mc::ReachOptions opts;
  // A generous real deadline that cannot expire on its own in this test.
  opts.limits.budget = Budget::deadline_after(std::chrono::hours(24));
  auto r = mc::reachable(tg.system, never(), opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(r.stop(), StopReason::kTimeLimit);
}

TEST(FaultInjection, SimulatorFaultDoesNotPoisonTheExecutor) {
  DisarmGuard guard;
  ta::System sys = make_exponential();
  auto prop = done_within(sys, 2.0);
  exec::Executor ex(4);

  FaultInjector::instance().arm("smc.simulator.step", FaultKind::kException,
                                /*after=*/100);
  auto broken = smc::estimate_probability_runs(sys, prop, 5'000, 0.05, 1, ex);
  EXPECT_EQ(broken.verdict, Verdict::kUnknown);
  EXPECT_EQ(broken.stop, StopReason::kFault);

  // The same pool must run the next job to completion.
  auto healthy = smc::estimate_probability_runs(sys, prop, 5'000, 0.05, 1, ex);
  EXPECT_EQ(healthy.verdict, Verdict::kHolds);
  EXPECT_EQ(healthy.completed, healthy.runs);
}

TEST(FaultInjection, ThreadPoolChunkFaultPropagatesAndPoolSurvives) {
  DisarmGuard guard;
  exec::Executor ex(4);
  FaultInjector::instance().arm("exec.thread_pool.chunk",
                                FaultKind::kException, /*after=*/2);
  std::atomic<std::uint64_t> count{0};
  EXPECT_THROW(
      ex.for_each(0, 100'000,
                  [&](std::uint64_t, exec::Executor::WorkerContext&) {
                    count.fetch_add(1, std::memory_order_relaxed);
                  }),
      quanta::FaultError);

  // Pool not poisoned: the next job covers every index exactly once.
  count.store(0);
  ex.for_each(0, 10'000, [&](std::uint64_t, exec::Executor::WorkerContext&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10'000u);
}

TEST(FaultInjection, AllocFaultThroughGovernedEstimateIsMemoryLimit) {
  DisarmGuard guard;
  ta::System sys = make_exponential();
  FaultInjector::instance().arm("smc.simulator.step", FaultKind::kAlloc,
                                /*after=*/50);
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(sys, done_within(sys, 2.0), 5'000,
                                            0.05, 1, ex);
  EXPECT_EQ(est.verdict, Verdict::kUnknown);
  EXPECT_EQ(est.stop, StopReason::kMemoryLimit);
}

TEST(FaultInjection, EnvSpecDegradesGracefully) {
  if (kEnvFaultSpec.empty()) {
    GTEST_SKIP() << "QUANTA_FAULT not set; CI fault matrix exercises this";
  }
  DisarmGuard guard;
  ASSERT_TRUE(FaultInjector::instance().arm_from_spec(kEnvFaultSpec))
      << "malformed QUANTA_FAULT spec: " << kEnvFaultSpec;
  // Drive every registered site enough to fire whatever the spec armed: a
  // symbolic search (thousands of state-store interns) and a statistical
  // estimate (thousands of simulator steps), both under a generous deadline
  // so an injected-deadline fault has a budget to trip. Wherever the fault
  // lands, the engine must degrade to kUnknown — never report a definite
  // verdict from a faulted run — and the process must stay healthy.
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.record_trace = false;
  opts.limits.budget = Budget::deadline_after(std::chrono::hours(24));
  auto r = mc::reachable(tg.system, never(), opts);
  expect_consistent(r.verdict, r.stop());

  ta::System sys = make_exponential();
  Budget budget = Budget::deadline_after(std::chrono::hours(24));
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(sys, done_within(sys, 2.0), 2'000,
                                            0.05, 1, ex, nullptr, budget);
  expect_consistent(est.verdict, est.stop);

  // Checkpoint round-trip so the ckpt.delta.* sites are reachable from the
  // spec: the first run writes a base snapshot plus periodic deltas
  // (ckpt.delta.write), the second resumes by replaying the chain
  // (ckpt.delta.apply). A write fault must end the chain at the previous
  // link and an apply fault must degrade the load to a fresh start — either
  // way both runs stay sound.
  const std::string ckpt_path = ::testing::TempDir() + "env_spec_fault.qckpt";
  ckpt::remove_chain(ckpt_path);
  mc::ReachOptions copts;
  copts.record_trace = false;
  copts.limits.budget = Budget::deadline_after(std::chrono::hours(24));
  copts.checkpoint.path = ckpt_path;
  copts.checkpoint.interval = 25;
  auto c1 = mc::reachable(tg.system, never(), copts);
  expect_consistent(c1.verdict, c1.stop());
  auto c2 = mc::reachable(tg.system, never(), copts);
  expect_consistent(c2.verdict, c2.stop());
  ckpt::remove_chain(ckpt_path);

  EXPECT_TRUE(FaultInjector::instance().fired())
      << "spec " << kEnvFaultSpec << " never fired; site unreachable?";
}

// ---- watchdog -------------------------------------------------------------

TEST(Watchdog, InactiveBudgetStartsNoThreadAndNeverFires) {
  CancelToken token;
  Budget budget;  // unlimited
  exec::Watchdog dog(budget, token);
  EXPECT_EQ(dog.fired_reason(), StopReason::kCompleted);
  EXPECT_FALSE(token.cancelled());
}

TEST(Watchdog, FiresTheTokenOnAnExpiredDeadline) {
  CancelToken token;
  Budget budget = expired_budget();
  exec::Watchdog dog(budget, token);
  for (int i = 0; i < 2'000 && !token.cancelled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(dog.fired_reason(), StopReason::kTimeLimit);
}

TEST(Watchdog, RelaysAnExternalCancellation) {
  CancelToken external;
  CancelToken internal;
  Budget budget = Budget{}.with_cancel(&external);
  exec::Watchdog dog(budget, internal);
  external.cancel();
  for (int i = 0; i < 2'000 && !internal.cancelled(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(internal.cancelled());
  EXPECT_EQ(dog.fired_reason(), StopReason::kCancelled);
}

}  // namespace
