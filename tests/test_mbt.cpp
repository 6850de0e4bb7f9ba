// Tests for the ioco testing theory: suspension automata, the ioco checker,
// test generation soundness/exhaustiveness, and online timed testing
// (experiment E7).
#include "mbt/ioco.h"

#include <gtest/gtest.h>

#include "mbt/execute.h"
#include "mbt/rtioco.h"
#include "models/mbt_models.h"

namespace {

using namespace quanta;
using namespace quanta::mbt;
using namespace quanta::models;

// Classic example: spec offers coffee after coin; impl may also give tea.
struct CoffeeLabels {
  int coin, button, coffee, tea;
};

Lts coffee_machine(bool also_tea, bool tea_only, CoffeeLabels* out) {
  Lts lts;
  CoffeeLabels l;
  l.coin = lts.add_input("coin");
  l.button = lts.add_input("button");
  l.coffee = lts.add_output("coffee");
  l.tea = lts.add_output("tea");
  int idle = lts.add_state("Idle");
  int paid = lts.add_state("Paid");
  int brew = lts.add_state("Brew");
  lts.set_initial(idle);
  lts.add_transition(idle, paid, l.coin);
  lts.add_transition(paid, brew, l.button);
  if (!tea_only) lts.add_transition(brew, idle, l.coffee);
  if (also_tea || tea_only) lts.add_transition(brew, idle, l.tea);
  // Input-enable.
  for (int s = 0; s < lts.state_count(); ++s) {
    for (int i : lts.inputs()) {
      if (lts.post(s, i).empty()) lts.add_transition(s, s, i);
    }
  }
  if (out) *out = l;
  return lts;
}

TEST(Suspension, QuiescenceAndDeterminization) {
  CoffeeLabels l;
  Lts spec = coffee_machine(false, false, &l);
  SuspensionAutomaton sa(spec);
  // Initial state is quiescent (no outputs before brewing).
  auto outs = sa.out(sa.initial());
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], kDelta);
  // After coin+button the machine must produce output: no delta.
  int paid = sa.step(sa.initial(), l.coin);
  int brew = sa.step(paid, l.button);
  ASSERT_GE(brew, 0);
  auto brewing = sa.out(brew);
  ASSERT_EQ(brewing.size(), 1u);
  EXPECT_EQ(brewing[0], l.coffee);
  // Delta is idempotent: delta loops at quiescent states.
  EXPECT_EQ(sa.step(sa.initial(), kDelta), sa.step(sa.step(sa.initial(), kDelta), kDelta));
}

TEST(Suspension, TauClosure) {
  Lts lts;
  int out = lts.add_output("o");
  int a = lts.add_state();
  int b = lts.add_state();
  int c = lts.add_state();
  lts.set_initial(a);
  lts.add_transition(a, b, kTau);
  lts.add_transition(b, c, out);
  SuspensionAutomaton sa(lts);
  // The initial suspension state includes b via tau, so o is offered.
  auto outs = sa.out(sa.initial());
  EXPECT_EQ(outs.size(), 1u);  // o, and no delta (b is not quiescent, a... )
}

TEST(Ioco, ReflexiveAndReduction) {
  Lts spec = coffee_machine(true, false, nullptr);   // coffee or tea
  Lts impl = coffee_machine(false, false, nullptr);  // coffee only
  EXPECT_TRUE(check_ioco(spec, spec).conforms);
  EXPECT_TRUE(check_ioco(impl, spec).conforms) << "reduction must conform";
  // The converse fails: spec may output tea which impl's spec disallows.
  auto r = check_ioco(spec, impl);
  EXPECT_FALSE(r.conforms);
  EXPECT_EQ(r.offending, "tea");
}

TEST(Ioco, CatchesWrongAndMissingOutputs) {
  Lts spec = make_swb_spec();
  EXPECT_TRUE(check_ioco(make_swb_impl(), spec).conforms);

  auto wrong = check_ioco(make_swb_mutant_wrong_output(), spec);
  EXPECT_FALSE(wrong.conforms);
  EXPECT_EQ(wrong.offending, "err");

  auto missing = check_ioco(make_swb_mutant_missing_notify(), spec);
  EXPECT_FALSE(missing.conforms);
  EXPECT_EQ(missing.offending, "delta") << "missing output shows as quiescence";

  auto unsolicited = check_ioco(make_swb_mutant_unsolicited_notify(), spec);
  EXPECT_FALSE(unsolicited.conforms);
  EXPECT_EQ(unsolicited.offending, "notify");
}

TEST(Ioco, CounterexampleTraceIsReported) {
  Lts spec = make_swb_spec();
  auto r = check_ioco(make_swb_mutant_wrong_output(), spec);
  ASSERT_FALSE(r.conforms);
  ASSERT_FALSE(r.trace.empty());
  // The witnessing trace must involve a publish (that is where err appears).
  bool has_publish = false;
  for (const auto& step : r.trace) {
    if (step == "publish") has_publish = true;
  }
  EXPECT_TRUE(has_publish);
}

TEST(TestGen, SoundnessOnConformingImpl) {
  // Generated tests never fail a conforming implementation.
  Lts spec = make_swb_spec();
  Lts impl = make_swb_impl();
  LtsIut iut(impl, 7);
  exec::Executor ex(4);
  auto campaign = run_campaign(spec, iut, 300, 11, ex);
  EXPECT_EQ(campaign.failures, 0u)
      << campaign.failures << "/" << campaign.tests << " sound tests failed";
}

TEST(TestGen, DetectsAllMutants) {
  Lts spec = make_swb_spec();
  exec::Executor ex(4);
  auto kill_rate = [&spec, &ex](const Lts& mutant, std::uint64_t seed) {
    LtsIut iut(mutant, seed);
    auto campaign = run_campaign(spec, iut, 400, seed + 1, ex);
    return campaign.failures;
  };
  EXPECT_GT(kill_rate(make_swb_mutant_wrong_output(), 21), 0u);
  EXPECT_GT(kill_rate(make_swb_mutant_missing_notify(), 22), 0u);
  EXPECT_GT(kill_rate(make_swb_mutant_unsolicited_notify(), 23), 0u);
}

TEST(TestGen, TestsAreFiniteTrees) {
  Lts spec = make_swb_spec();
  TestGenerator gen(spec, 3, TestGenOptions{.max_depth = 8});
  for (int i = 0; i < 50; ++i) {
    TestCase tc = gen.generate();
    ASSERT_FALSE(tc.nodes.empty());
    // Every referenced node index is in range (tree well-formedness).
    for (const auto& n : tc.nodes) {
      if (n.kind == TestNode::Kind::kStimulate) {
        ASSERT_GE(n.after_stimulus, 0);
        ASSERT_LT(n.after_stimulus, static_cast<int>(tc.nodes.size()));
      }
      for (const auto& [o, next] : n.on_output) {
        ASSERT_LT(next, static_cast<int>(tc.nodes.size()));
      }
    }
  }
}

// ---- rtioco online testing (TRON) ----------------------------------------

TEST(Rtioco, CorrectImplementationPasses) {
  auto spec = models::make_timed_light_spec();
  TimedSystemIut iut(spec, 5);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto r = rtioco_online_test(spec, iut, seed);
    EXPECT_EQ(r.verdict, OnlineVerdict::kPass)
        << "seed " << seed << ", after " << r.steps << " steps, log tail: "
        << (r.log.empty() ? "-" : r.log.back());
  }
}

TEST(Rtioco, LateMutantFailsDeadline) {
  auto spec = models::make_timed_light_spec();
  auto mutant = models::make_timed_light_late_mutant();
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 20 && !caught; ++seed) {
    TimedSystemIut iut(mutant, seed);
    auto r = rtioco_online_test(spec, iut, seed + 100);
    if (r.verdict != OnlineVerdict::kPass) {
      caught = true;
      EXPECT_TRUE(r.verdict == OnlineVerdict::kFailDeadline ||
                  r.verdict == OnlineVerdict::kFailOutput);
    }
  }
  EXPECT_TRUE(caught) << "the late mutant was never detected";
}

TEST(Rtioco, WrongActionMutantFails) {
  auto spec = models::make_timed_light_spec();
  auto mutant = models::make_timed_light_wrong_action_mutant();
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 20 && !caught; ++seed) {
    TimedSystemIut iut(mutant, seed);
    auto r = rtioco_online_test(spec, iut, seed + 500);
    if (r.verdict == OnlineVerdict::kFailOutput) caught = true;
  }
  EXPECT_TRUE(caught) << "the wrong-action mutant was never detected";
}

TEST(Rtioco, LogRecordsTimedTrace) {
  auto spec = models::make_timed_light_spec();
  TimedSystemIut iut(spec, 9);
  OnlineTestOptions opts;
  opts.input_probability = 0.9;
  opts.max_time = 50;
  auto r = rtioco_online_test(spec, iut, 77, opts);
  EXPECT_EQ(r.verdict, OnlineVerdict::kPass);
  ASSERT_FALSE(r.log.empty());
  EXPECT_NE(r.log.front().find("t="), std::string::npos);
}

}  // namespace
