// Integration tests: the BRP model against its analytic Table I values via
// all three analysis routes (mctau / mcpta / modes), experiment E4.
#include "models/brp.h"

#include <gtest/gtest.h>

#include "graph_analysis_reference.h"
#include "pta/digital_clocks.h"
#include "pta/properties.h"
#include "sta/des.h"
#include "sta/mctau.h"
#include "sta/sta.h"

namespace {

using namespace quanta;

class BrpMcpta : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    brp_ = new models::Brp(models::make_brp());
    dm_ = new pta::DigitalMdp(pta::build_digital_mdp(brp_->system));
  }
  static void TearDownTestSuite() {
    delete dm_;
    delete brp_;
    dm_ = nullptr;
    brp_ = nullptr;
  }
  static models::Brp* brp_;
  static pta::DigitalMdp* dm_;
};
models::Brp* BrpMcpta::brp_ = nullptr;
pta::DigitalMdp* BrpMcpta::dm_ = nullptr;

TEST_F(BrpMcpta, P1MatchesAnalytic) {
  auto r = pta::pmax_reach(
      *dm_, [](const ta::DigitalState& s) { return brp_->no_success(s.locs); });
  EXPECT_NEAR(r.value, brp_->analytic_p1(), 1e-8);  // paper: 4.233e-4
}

TEST_F(BrpMcpta, P2MatchesAnalytic) {
  auto r = pta::pmax_reach(
      *dm_, [](const ta::DigitalState& s) { return brp_->is_fail_dk(s.locs); });
  EXPECT_NEAR(r.value, brp_->analytic_p2(), 1e-8);  // paper: 2.645e-5
}

TEST_F(BrpMcpta, PaAndPbAreZero) {
  // PA: certain failure reported but the receiver has the complete file.
  auto pa = pta::pmax_reach(*dm_, [](const ta::DigitalState& s) {
    return brp_->is_fail_nok(s.locs) && brp_->complete_file(s.vars);
  });
  EXPECT_EQ(pa.value, 0.0);
  // PB: success reported but the receiver is missing frames.
  auto pb = pta::pmax_reach(*dm_, [](const ta::DigitalState& s) {
    return brp_->is_success(s.locs) && !brp_->complete_file(s.vars);
  });
  EXPECT_EQ(pb.value, 0.0);
}

TEST_F(BrpMcpta, Ta1NoPrematureTimeouts) {
  const int to = brp_->params.effective_timeout();
  auto r = pta::check_invariant(*dm_, [to](const ta::DigitalState& s) {
    bool timer_expired = brp_->sender_waiting(s.locs) &&
                         s.clocks[static_cast<std::size_t>(brp_->clk_x)] >= to;
    return !(timer_expired && brp_->channels_busy(s.locs));
  });
  EXPECT_TRUE(r.holds()) << r.violating_state;
}

TEST_F(BrpMcpta, Ta2FailureHandling) {
  auto r = pta::check_invariant(
      *dm_, [](const ta::DigitalState& s) { return brp_->ta2_ok(s.vars); });
  EXPECT_TRUE(r.holds()) << r.violating_state;
}

TEST_F(BrpMcpta, EmaxNearPaperValue) {
  auto r = pta::emax_time(
      *dm_, [](const ta::DigitalState& s) { return brp_->is_done(s.locs); });
  // Paper reports 33.473 on the MODEST BRP; our reconstruction gives ~33.47.
  EXPECT_NEAR(r.value, 33.47, 0.15);
  // The minimal scheduler transmits instantly; only timeouts cost time.
  auto rmin = pta::emin_time(
      *dm_, [](const ta::DigitalState& s) { return brp_->is_done(s.locs); });
  EXPECT_LT(rmin.value, 2.0);
  EXPECT_GT(r.value, rmin.value);
}

TEST(BrpDmax, TimeBoundedSuccess) {
  models::BrpParams params;
  params.global_clock = true;
  auto brp = models::make_brp(params);
  auto dm = pta::build_digital_mdp(brp.system);
  int gt = brp.clk_gt;
  auto r = pta::pmax_reach(dm, [&brp, gt](const ta::DigitalState& s) {
    return brp.is_success(s.locs) &&
           s.clocks[static_cast<std::size_t>(gt)] <= 64;
  });
  EXPECT_NEAR(r.value, 0.9996, 5e-4);  // paper: 9.996e-1
  // A much tighter bound cuts the probability visibly (32 time units is the
  // loss-free minimum at full channel delays, so some mass must be lost).
  auto tight = pta::pmax_reach(dm, [&brp, gt](const ta::DigitalState& s) {
    return brp.is_success(s.locs) &&
           s.clocks[static_cast<std::size_t>(gt)] <= 10;
  });
  EXPECT_LT(tight.value, r.value);
}

/// The four qualitative precomputations return exactly the sets of the
/// sweep reference on a digital BRP MDP.
void expect_precomputations_match_sweeps(const mdp::Mdp& m,
                                         const mdp::StateSet& goal) {
  EXPECT_EQ(mdp::prob0_max(m, goal), mdp::reference::prob0_max(m, goal));
  EXPECT_EQ(mdp::prob0_min(m, goal), mdp::reference::prob0_min(m, goal));
  EXPECT_EQ(mdp::prob1_max(m, goal), mdp::reference::prob1_max(m, goal));
  EXPECT_EQ(mdp::prob1_min(m, goal), mdp::reference::prob1_min(m, goal));
}

TEST_F(BrpMcpta, PrecomputationsMatchSweepFixpoints) {
  expect_precomputations_match_sweeps(
      dm_->mdp, dm_->states_where([](const ta::DigitalState& s) {
        return brp_->no_success(s.locs);
      }));
  expect_precomputations_match_sweeps(
      dm_->mdp, dm_->states_where([](const ta::DigitalState& s) {
        return brp_->is_done(s.locs);
      }));
}

TEST(BrpDmax, PrecomputationsMatchSweepFixpoints) {
  models::BrpParams params;
  params.global_clock = true;
  auto brp = models::make_brp(params);
  auto dm = pta::build_digital_mdp(brp.system);
  const int gt = brp.clk_gt;
  expect_precomputations_match_sweeps(
      dm.mdp, dm.states_where([&brp, gt](const ta::DigitalState& s) {
        return brp.is_success(s.locs) &&
               s.clocks[static_cast<std::size_t>(gt)] <= 64;
      }));
}

TEST(BrpMctau, QualitativeColumnOfTableI) {
  auto brp = models::make_brp();
  EXPECT_EQ(sta::classify(brp.system), sta::ModelClass::kPta);

  const int to = brp.params.effective_timeout();
  // TA1 / TA2 transfer exactly through the overapproximation.
  bool ta1 = sta::mctau_invariant(
      brp.system, [&brp, to](const ta::SymState& s) {
        bool can_expire =
            brp.sender_waiting(s.locs) &&
            s.zone.satisfies(0, brp.clk_x, quanta::dbm::bound_le(-to));
        return !(can_expire && brp.channels_busy(s.locs));
      });
  EXPECT_TRUE(ta1);
  bool ta2 = sta::mctau_invariant(
      brp.system, [&brp](const ta::SymState& s) { return brp.ta2_ok(s.vars); });
  EXPECT_TRUE(ta2);

  // PA/PB: unreachable even nondeterministically -> exact 0.
  auto pa = sta::mctau_reach_probability(
      brp.system, [&brp](const ta::SymState& s) {
        return brp.is_fail_nok(s.locs) && brp.complete_file(s.vars);
      });
  ASSERT_TRUE(pa.exact.has_value());
  EXPECT_EQ(*pa.exact, 0.0);

  // P1: reachable nondeterministically -> the trivial interval [0,1].
  auto p1 = sta::mctau_reach_probability(
      brp.system, [&brp](const ta::SymState& s) { return brp.no_success(s.locs); });
  EXPECT_FALSE(p1.exact.has_value());
  EXPECT_EQ(p1.lo, 0.0);
  EXPECT_EQ(p1.hi, 1.0);
  EXPECT_EQ(p1.to_string(), "[0, 1]");
}

TEST(BrpModes, AlapEnsembleMatchesEmax) {
  auto brp = models::make_brp();
  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kAlap;
  auto terminal = [&brp](const ta::ConcreteState& s) { return brp.is_done(s.locs); };
  std::vector<sta::DesPredicate> watch = {
      [&brp](const ta::ConcreteState& s) { return brp.no_success(s.locs); },
  };
  std::vector<sta::DesPredicate> monitors = {
      [&brp](const ta::ConcreteState& s) { return brp.ta2_ok(s.vars); },
  };
  auto ens = sta::run_ensemble(brp.system, 2000, 99, opts, terminal, watch,
                               monitors);
  EXPECT_EQ(ens.terminated, 2000u);
  // Paper (10k runs): mean 33.473, stddev 2.136 under the ALAP-style
  // scheduler; with 2000 runs allow generous tolerance.
  EXPECT_NEAR(ens.end_time.mean(), 33.47, 0.35);
  EXPECT_NEAR(ens.end_time.stddev(), 2.1, 0.6);
  // The rare events are (almost) never observed; monitors never trip.
  EXPECT_LE(ens.watch_hits[0], 4u);
  EXPECT_EQ(ens.monitor_violations[0], 0u);
}

TEST(BrpModes, AsapIsMuchFaster) {
  auto brp = models::make_brp();
  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kAsap;
  auto terminal = [&brp](const ta::ConcreteState& s) { return brp.is_done(s.locs); };
  auto ens = sta::run_ensemble(brp.system, 500, 7, opts, terminal);
  EXPECT_EQ(ens.terminated, 500u);
  // With ASAP scheduling all channel delays collapse to 0; only timeouts
  // (rare) cost time.
  EXPECT_LT(ens.end_time.mean(), 2.0);
}

TEST(BrpScaling, SmallerInstancesMatchAnalytic) {
  for (int n : {2, 8}) {
    for (int max_r : {1, 2}) {
      models::BrpParams params;
      params.frames = n;
      params.max_retrans = max_r;
      auto brp = models::make_brp(params);
      auto dm = pta::build_digital_mdp(brp.system);
      auto r = pta::pmax_reach(dm, [&brp](const ta::DigitalState& s) {
        return brp.no_success(s.locs);
      });
      EXPECT_NEAR(r.value, brp.analytic_p1(), 1e-8)
          << "N=" << n << " MAX=" << max_r;
    }
  }
}

}  // namespace
