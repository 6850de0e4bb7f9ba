// Tests for the MDP core: CSR assembly, qualitative precomputation (also
// against the sweep reference on random MDPs), value iteration and expected
// rewards on hand-computable models.
#include "mdp/mdp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph_analysis_reference.h"
#include "mdp/expected_reward.h"
#include "mdp/graph_analysis.h"
#include "mdp/value_iteration.h"

namespace {

using namespace quanta::mdp;

StateSet goal_at(std::int32_t n, std::initializer_list<std::int32_t> states) {
  StateSet g(static_cast<std::size_t>(n), false);
  for (auto s : states) g[static_cast<std::size_t>(s)] = true;
  return g;
}

// 0 --a--> {1 w.p. 0.5, 2 w.p. 0.5}; 1 terminal (goal); 2 terminal.
Mdp simple_coin() {
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.freeze();
  return m;
}

TEST(Mdp, FreezeAddsSelfLoopsForTerminalStates) {
  Mdp m = simple_coin();
  EXPECT_EQ(m.num_states(), 3);
  EXPECT_EQ(m.choice_end(1) - m.choice_begin(1), 1);
  auto b = m.branches_of(m.choice_begin(1));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].target, 1);
  EXPECT_DOUBLE_EQ(b[0].prob, 1.0);
}

TEST(Mdp, FreezeRejectsUnnormalisedDistributions) {
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.4}});
  EXPECT_THROW(m.freeze(), std::invalid_argument);
}

TEST(Mdp, AddChoiceAfterFreezeThrows) {
  Mdp m = simple_coin();
  EXPECT_THROW(m.add_choice(0, {Branch{0, 1.0}}), std::logic_error);
}

TEST(ValueIteration, CoinFlip) {
  Mdp m = simple_coin();
  auto goal = goal_at(3, {1});
  auto rmax = reachability_probability(m, goal, Objective::kMax);
  auto rmin = reachability_probability(m, goal, Objective::kMin);
  EXPECT_DOUBLE_EQ(rmax.values[0], 0.5);
  EXPECT_DOUBLE_EQ(rmin.values[0], 0.5);
  EXPECT_TRUE(rmax.converged);
}

TEST(ValueIteration, ChoiceSeparatesMaxAndMin) {
  // 0 has two actions: sure to goal (1) or sure to sink (2).
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  EXPECT_DOUBLE_EQ(
      reachability_probability(m, goal, Objective::kMax).values[0], 1.0);
  EXPECT_DOUBLE_EQ(
      reachability_probability(m, goal, Objective::kMin).values[0], 0.0);
}

TEST(ValueIteration, GeometricRetryLoop) {
  // 0 --> {goal 0.3, 0 w.p. 0.7}: P(F goal) = 1 (almost surely).
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  m.freeze();
  auto goal = goal_at(2, {1});
  auto r = reachability_probability(m, goal, Objective::kMax);
  EXPECT_NEAR(r.values[0], 1.0, 1e-9);
  // Precomputation should make this *exactly* 1 (prob1 set).
  EXPECT_DOUBLE_EQ(r.values[0], 1.0);
}

TEST(GraphAnalysis, Prob0Max) {
  // 2 cannot reach 1 at all.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto z = prob0_max(m, goal);
  EXPECT_FALSE(z[0]);
  EXPECT_FALSE(z[1]);
  EXPECT_TRUE(z[2]);
}

TEST(GraphAnalysis, Prob0MinFindsAvoidanceStrategy) {
  // 0 can choose to go to 2 (safe sink) instead of 1 (goal).
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto z = prob0_min(m, goal);
  EXPECT_TRUE(z[0]);
  EXPECT_FALSE(z[1]);
  EXPECT_TRUE(z[2]);
}

TEST(GraphAnalysis, Prob1Sets) {
  // 0 --> {1:0.3, 0:0.7} reaches 1 a.s.; with an extra escape action to 2,
  // only the max objective keeps probability 1.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  m.add_choice(0, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {1});
  auto p1max = prob1_max(m, goal);
  auto p1min = prob1_min(m, goal);
  EXPECT_TRUE(p1max[0]);
  EXPECT_FALSE(p1min[0]);  // the scheduler may escape to 2
  EXPECT_FALSE(p1max[2]);
}

/// A random MDP over `n` states: every state gets 0-3 choices (freeze()
/// gives the choiceless ones a self-loop), every choice 1-4 uniform
/// branches whose targets may repeat and may be the state itself.
Mdp random_mdp(std::uint32_t* rng, std::int32_t n) {
  auto next = [rng] { return *rng = *rng * 1664525u + 1013904223u; };
  Mdp m;
  for (std::int32_t s = 0; s < n; ++s) {
    const std::uint32_t choices = (next() >> 8) % 4;
    for (std::uint32_t c = 0; c < choices; ++c) {
      const std::uint32_t k = 1 + (next() >> 8) % 4;
      std::vector<Branch> branches;
      for (std::uint32_t b = 0; b < k; ++b) {
        std::int32_t t = static_cast<std::int32_t>((next() >> 8) % static_cast<std::uint32_t>(n));
        if ((next() >> 8) % 5 == 0) t = s;
        if (b > 0 && (next() >> 8) % 5 == 0) t = branches.back().target;
        branches.push_back(Branch{t, 1.0 / static_cast<double>(k)});
      }
      m.add_choice(s, std::move(branches));
    }
  }
  m.set_initial(0);
  m.freeze();
  return m;
}

TEST(GraphAnalysis, MatchesSweepFixpointsOnRandomMdps) {
  std::uint32_t rng = 2024;
  auto next = [&rng] { return rng = rng * 1664525u + 1013904223u; };
  for (int round = 0; round < 1500; ++round) {
    const auto n = static_cast<std::int32_t>(1 + (next() >> 8) % 40);
    const Mdp m = random_mdp(&rng, n);
    StateSet goal(static_cast<std::size_t>(m.num_states()));
    const std::uint32_t density = (next() >> 8) % 6;  // 0: empty, 5: full
    for (std::size_t s = 0; s < goal.size(); ++s) {
      goal[s] = density == 5 || (density > 0 && (next() >> 8) % 8 < density);
    }
    EXPECT_EQ(prob0_max(m, goal), reference::prob0_max(m, goal)) << "round " << round;
    EXPECT_EQ(prob0_min(m, goal), reference::prob0_min(m, goal)) << "round " << round;
    EXPECT_EQ(prob1_max(m, goal), reference::prob1_max(m, goal)) << "round " << round;
    EXPECT_EQ(prob1_min(m, goal), reference::prob1_min(m, goal)) << "round " << round;
  }
}

TEST(BoundedReachability, StepHorizon) {
  // Chain 0 -> 1 -> 2 (goal). Within 1 step: 0; within 2: 1.
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});
  m.add_choice(1, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(3, {2});
  EXPECT_DOUBLE_EQ(bounded_reachability(m, goal, 1, Objective::kMax).values[0], 0.0);
  EXPECT_DOUBLE_EQ(bounded_reachability(m, goal, 2, Objective::kMax).values[0], 1.0);
  // Probabilistic: 0 --> {2:0.4, 1:0.6}, 1 --> 2.
  Mdp m2;
  m2.add_choice(0, {Branch{2, 0.4}, Branch{1, 0.6}});
  m2.add_choice(1, {Branch{2, 1.0}});
  m2.freeze();
  EXPECT_DOUBLE_EQ(bounded_reachability(m2, goal, 1, Objective::kMax).values[0], 0.4);
  EXPECT_DOUBLE_EQ(bounded_reachability(m2, goal, 2, Objective::kMax).values[0], 1.0);
}

TEST(ExpectedReward, GeometricMean) {
  // Retry loop with reward 1 per attempt: E[attempts until success] = 1/0.3.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}}, /*reward=*/1.0);
  m.freeze();
  auto goal = goal_at(2, {1});
  auto r = expected_reward_to_goal(m, goal, Objective::kMax);
  EXPECT_NEAR(r.values[0], 1.0 / 0.3, 1e-6);
  auto rmin = expected_reward_to_goal(m, goal, Objective::kMin);
  EXPECT_NEAR(rmin.values[0], 1.0 / 0.3, 1e-6);
}

TEST(ExpectedReward, MaxPrefersExpensivePath) {
  // 0 -> goal directly (reward 1) or via 1 (reward 5 total).
  Mdp m;
  m.add_choice(0, {Branch{2, 1.0}}, 1.0);
  m.add_choice(0, {Branch{1, 1.0}}, 2.0);
  m.add_choice(1, {Branch{2, 1.0}}, 3.0);
  m.freeze();
  auto goal = goal_at(3, {2});
  EXPECT_NEAR(expected_reward_to_goal(m, goal, Objective::kMax).values[0], 5.0, 1e-9);
  EXPECT_NEAR(expected_reward_to_goal(m, goal, Objective::kMin).values[0], 1.0, 1e-9);
}

TEST(ExpectedReward, DivergentStatesAreInfinite) {
  // 0 may loop forever on itself (reward 1) instead of reaching goal:
  // Emax = infinity, Emin = 0 reward... via direct edge.
  Mdp m;
  m.add_choice(0, {Branch{0, 1.0}}, 1.0);
  m.add_choice(0, {Branch{1, 1.0}}, 1.0);
  m.freeze();
  auto goal = goal_at(2, {1});
  auto rmax = expected_reward_to_goal(m, goal, Objective::kMax);
  EXPECT_TRUE(std::isinf(rmax.values[0]));
  auto rmin = expected_reward_to_goal(m, goal, Objective::kMin);
  EXPECT_NEAR(rmin.values[0], 1.0, 1e-9);
}

TEST(IntervalIteration, CertifiesBracketsOnCoinAndLoop) {
  Mdp coin = simple_coin();
  auto goal = goal_at(3, {1});
  auto r = interval_iteration(coin, goal, Objective::kMax, 1e-9);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.lower[0], 0.5);
  EXPECT_GE(r.upper[0], 0.5);
  EXPECT_LT(r.width_at_initial(coin), 1e-9);

  Mdp loop;
  loop.add_choice(0, {Branch{1, 0.3}, Branch{0, 0.7}});
  loop.freeze();
  auto goal2 = goal_at(2, {1});
  auto r2 = interval_iteration(loop, goal2, Objective::kMin, 1e-9);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r2.lower[0], 1.0, 1e-9);  // prob1 precomputation fixes it
}

TEST(IntervalIteration, BracketsAlwaysContainViResult) {
  // Random-ish chain with branching.
  Mdp m;
  m.add_choice(0, {Branch{1, 0.5}, Branch{2, 0.5}});
  m.add_choice(1, {Branch{3, 0.4}, Branch{0, 0.6}});
  m.add_choice(1, {Branch{2, 1.0}});
  m.add_choice(2, {Branch{2, 1.0}});
  m.freeze();
  auto goal = goal_at(4, {3});
  for (auto obj : {Objective::kMax, Objective::kMin}) {
    auto vi = reachability_probability(m, goal, obj);
    auto ii = interval_iteration(m, goal, obj, 1e-10);
    ASSERT_TRUE(ii.converged);
    for (int s = 0; s < 4; ++s) {
      EXPECT_LE(ii.lower[static_cast<std::size_t>(s)],
                vi.values[static_cast<std::size_t>(s)] + 1e-9);
      EXPECT_GE(ii.upper[static_cast<std::size_t>(s)],
                vi.values[static_cast<std::size_t>(s)] - 1e-9);
    }
  }
}

TEST(IntervalIteration, ReportsStallOnMaybeEndComponent) {
  // State 0 may loop on itself forever or go to goal: an end component in
  // the maybe region for the *upper* bound under kMax would stall — but
  // prob1_max already resolves this instance exactly, so it converges; a
  // genuine stall needs a maybe-EC, which we build with a 2-state cycle
  // that can also drift to a sink.
  Mdp m;
  m.add_choice(0, {Branch{1, 1.0}});   // into the cycle
  m.add_choice(1, {Branch{0, 1.0}});   // cycle back
  m.add_choice(1, {Branch{2, 0.5}, Branch{3, 0.5}});  // leave: goal or sink
  m.freeze();
  auto goal = goal_at(4, {2});
  auto ii = interval_iteration(m, goal, Objective::kMax, 1e-9, 10000);
  // Pmax = 0.5; the 0<->1 cycle is a maybe-EC, so the upper bound stalls at
  // 1 and convergence must be reported as failed (honest certification).
  EXPECT_FALSE(ii.converged);
  EXPECT_NEAR(ii.lower[0], 0.5, 1e-6) << "lower bound still correct";
  EXPECT_GE(ii.upper[0], 0.5);
}

}  // namespace
