// Cross-engine consistency properties: the library implements several
// independent semantics/engines for the same models; on randomly generated
// systems their answers must agree. These tests are the strongest internal
// soundness evidence we have:
//   - symbolic (zone) vs digital (integer-time) reachability on closed TA;
//   - mcpta (digital MDP value iteration) vs modes-style simulation on PTAs;
//   - BIP exact exploration vs flattening;
//   - probabilities vs their analytic closed forms on a parametric family.
#include <gtest/gtest.h>

#include "bip/explore.h"
#include "bip/flatten.h"
#include "common/rng.h"
#include "mc/reachability.h"
#include "models/brp.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"
#include "pta/properties.h"
#include "smc/estimate.h"
#include "sta/mctau.h"
#include "ta/digital.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProcessBuilder;
using ta::SyncKind;

/// Random closed, diagonal-free TA network: `procs` processes with a few
/// locations each, one clock per process, random closed guards/invariants,
/// and a couple of binary channels.
ta::System random_ta(common::Rng& rng, int procs) {
  ta::System sys;
  int channels = 2;
  for (int c = 0; c < channels; ++c) {
    sys.add_channel("c" + std::to_string(c));
  }
  for (int p = 0; p < procs; ++p) {
    int x = sys.add_clock("x" + std::to_string(p));
    ProcessBuilder pb("P" + std::to_string(p));
    int n_locs = rng.uniform_int(2, 4);
    for (int l = 0; l < n_locs; ++l) {
      std::vector<ta::ClockConstraint> inv;
      if (rng.bernoulli(0.5)) inv.push_back(cc_le(x, rng.uniform_int(2, 6)));
      pb.location("l" + std::to_string(l), std::move(inv));
    }
    int n_edges = rng.uniform_int(2, 5);
    for (int e = 0; e < n_edges; ++e) {
      int src = rng.uniform_int(0, n_locs - 1);
      int dst = rng.uniform_int(0, n_locs - 1);
      std::vector<ta::ClockConstraint> guard;
      if (rng.bernoulli(0.5)) guard.push_back(cc_ge(x, rng.uniform_int(0, 4)));
      if (rng.bernoulli(0.3)) guard.push_back(cc_le(x, rng.uniform_int(4, 8)));
      std::vector<std::pair<int, ta::Value>> resets;
      if (rng.bernoulli(0.5)) resets.emplace_back(x, 0);
      int kind = rng.uniform_int(0, 2);
      int channel = kind == 0 ? -1 : rng.uniform_int(0, channels - 1);
      pb.edge(src, dst, std::move(guard), channel,
              kind == 0 ? SyncKind::kNone
                        : (kind == 1 ? SyncKind::kSend : SyncKind::kReceive),
              std::move(resets));
    }
    sys.add_process(pb.build());
  }
  sys.validate();
  return sys;
}

/// Reachable location-vector sets must agree between the zone-based and the
/// digital-clocks semantics (exact for closed diagonal-free TA).
class SymbolicVsDigital : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicVsDigital, SameReachableLocationVectors) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 13);
  ta::System sys = random_ta(rng, 2);

  // Symbolic: collect reachable location vectors.
  std::set<std::vector<int>> symbolic;
  mc::reachable(sys, [&symbolic](const ta::SymState& s) {
    symbolic.insert(s.locs);
    return false;
  });

  // Digital: BFS over integer-time states.
  std::set<std::vector<int>> digital;
  {
    ta::DigitalSemantics sem(sys);
    std::set<ta::DigitalState> seen;
    std::vector<ta::DigitalState> work{sem.initial()};
    seen.insert(work.back());
    auto cmp_insert = [&](ta::DigitalState s) {
      if (seen.insert(s).second) work.push_back(std::move(s));
    };
    ta::MoveList moves;
    ta::DigitalState next;
    while (!work.empty()) {
      ta::DigitalState s = std::move(work.back());
      work.pop_back();
      digital.insert(s.locs);
      sem.enabled_moves(s, moves);
      for (std::size_t i = 0; i < moves.size(); ++i) {
        sem.apply(s, moves[i], next);
        cmp_insert(next);
      }
      if (sem.can_delay(s)) {
        sem.delay_one(s, next);
        cmp_insert(next);
      }
    }
  }
  EXPECT_EQ(symbolic, digital)
      << "zone and digital semantics disagree on reachability";
}

INSTANTIATE_TEST_SUITE_P(RandomModels, SymbolicVsDigital,
                         ::testing::Range(0, 30));

/// A one-process PTA whose success probability is scheduler-independent:
/// k rounds of an urgent coin flip with success probability q per round;
/// overall success = 1 - (1-q)^k. Checked with value iteration AND with the
/// stochastic simulator.
class PtaVsAnalytic : public ::testing::TestWithParam<int> {};

TEST_P(PtaVsAnalytic, ViMatchesClosedFormAndSimulation) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  int k = rng.uniform_int(1, 4);
  double q = 0.1 + 0.2 * rng.uniform_int(0, 3);

  ta::System sys;
  ProcessBuilder pb("P");
  std::vector<int> rounds;
  for (int i = 0; i <= k; ++i) {
    rounds.push_back(pb.location("r" + std::to_string(i), {}, false,
                                 /*urgent=*/i < k));
  }
  int win = pb.location("Win");
  for (int i = 0; i < k; ++i) {
    int idx = pb.edge(rounds[static_cast<std::size_t>(i)],
                      rounds[static_cast<std::size_t>(i + 1)]);
    ta::Edge& e = pb.edge_ref(idx);
    e.branches = {ta::ProbBranch{q, win, {}, nullptr, "win"},
                  ta::ProbBranch{1.0 - q, rounds[static_cast<std::size_t>(i + 1)],
                                 {}, nullptr, "next"}};
  }
  pb.set_initial(rounds[0]);
  sys.add_process(pb.build());

  double expected = 1.0 - std::pow(1.0 - q, k);

  // Engine 1: digital MDP + value iteration.
  auto dm = pta::build_digital_mdp(sys);
  int p = 0;
  auto at_win = [p, win](const ta::DigitalState& s) {
    return s.locs[static_cast<std::size_t>(p)] == win;
  };
  EXPECT_NEAR(pta::pmax_reach(dm, at_win).value, expected, 1e-9);
  EXPECT_NEAR(pta::pmin_reach(dm, at_win).value, expected, 1e-9)
      << "no scheduler influence expected";

  // Engine 2: stochastic simulation.
  smc::TimeBoundedReach prop;
  prop.time_bound = 1e6;
  prop.goal = [p, win](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == win;
  };
  exec::Executor ex(2);
  auto est = smc::estimate_probability_runs(
      sys, prop, 4000, 0.01, static_cast<std::uint64_t>(GetParam()), ex);
  EXPECT_NEAR(est.p_hat, expected, 0.035)
      << "k=" << k << " q=" << q << " (simulation vs closed form)";
}

INSTANTIATE_TEST_SUITE_P(RandomParams, PtaVsAnalytic, ::testing::Range(0, 12));

/// Random BIP systems: flattening preserves the reachable state count and
/// the deadlock verdict of exact exploration.
class BipFlattenProperty : public ::testing::TestWithParam<int> {};

TEST_P(BipFlattenProperty, FlatteningPreservesBehaviour) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 3);
  bip::BipSystem sys;
  int procs = rng.uniform_int(2, 3);
  for (int p = 0; p < procs; ++p) {
    bip::Component c("C" + std::to_string(p));
    int n = rng.uniform_int(2, 3);
    for (int l = 0; l < n; ++l) c.add_place("p" + std::to_string(l));
    c.add_port("a");
    c.add_port("b");
    int edges = rng.uniform_int(2, 4);
    for (int e = 0; e < edges; ++e) {
      c.add_transition(rng.uniform_int(0, n - 1), rng.uniform_int(0, n - 1),
                       rng.uniform_int(-1, 1));
    }
    c.set_initial(0);
    sys.add_component(std::move(c));
  }
  // A binary rendezvous between the first two components on port "b".
  bip::Connector conn;
  conn.name = "rv";
  conn.ports = {{0, 1}, {1, 1}};
  sys.add_connector(std::move(conn));
  // Unary connectors exposing port "a" of every component.
  for (int p = 0; p < procs; ++p) {
    bip::Connector solo;
    solo.name = "solo" + std::to_string(p);
    solo.ports = {{p, 0}};
    sys.add_connector(std::move(solo));
  }

  auto exact = bip::explore(sys);
  auto flat = bip::flatten(sys);
  ASSERT_FALSE(flat.stats.truncated);
  EXPECT_EQ(static_cast<std::size_t>(flat.flat.place_count()),
            exact.stats.states_stored);

  // Deadlock in the original iff some flat place has no outgoing transition.
  std::vector<bool> has_succ(static_cast<std::size_t>(flat.flat.place_count()),
                             false);
  for (const auto& t : flat.flat.transitions()) {
    has_succ[static_cast<std::size_t>(t.source)] = true;
  }
  bool flat_deadlock = false;
  for (bool b : has_succ) {
    if (!b) flat_deadlock = true;
  }
  EXPECT_EQ(flat_deadlock, exact.deadlock_found);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, BipFlattenProperty,
                         ::testing::Range(0, 25));

/// The BRP family: model-checked P1 equals the closed form for random
/// parameter combinations (ties the whole PTA pipeline to ground truth).
class BrpFamily : public ::testing::TestWithParam<int> {};

TEST_P(BrpFamily, P1MatchesClosedForm) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  models::BrpParams params;
  params.frames = rng.uniform_int(1, 8);
  params.max_retrans = rng.uniform_int(0, 3);
  params.td = rng.uniform_int(1, 2);
  params.msg_loss = 0.05 * rng.uniform_int(1, 4);
  params.ack_loss = 0.05 * rng.uniform_int(1, 2);
  auto brp = models::make_brp(params);
  auto dm = pta::build_digital_mdp(brp.system);
  auto p1 = pta::pmax_reach(dm, [&brp](const ta::DigitalState& s) {
              return brp.no_success(s.locs);
            }).value;
  EXPECT_NEAR(p1, brp.analytic_p1(), 1e-7)
      << "N=" << params.frames << " MAX=" << params.max_retrans
      << " TD=" << params.td << " pm=" << params.msg_loss
      << " pa=" << params.ack_loss;
}

INSTANTIATE_TEST_SUITE_P(RandomParams, BrpFamily, ::testing::Range(0, 15));

/// The shared exploration core makes the waiting-list order a one-line
/// option; verdicts (reachability, invariants) must be identical under BFS
/// and DFS even though witness traces and stored-state counts may differ.
TEST(SearchOrder, BfsAndDfsAgreeOnTrainGate) {
  auto tg = models::make_train_gate(3);
  std::vector<int> cross_loc;
  for (int i = 0; i < tg.num_trains; ++i) {
    cross_loc.push_back(
        tg.system.process(tg.trains[i]).location_index("Cross"));
  }
  auto trains = tg.trains;
  auto mutex = [trains, cross_loc](const ta::SymState& s) {
    int crossing = 0;
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] == cross_loc[i]) {
        ++crossing;
      }
    }
    return crossing <= 1;
  };

  mc::ReachOptions bfs;
  bfs.order = core::SearchOrder::kBfs;
  mc::ReachOptions dfs;
  dfs.order = core::SearchOrder::kDfs;

  auto inv_bfs = mc::check_invariant(tg.system, mutex, bfs);
  auto inv_dfs = mc::check_invariant(tg.system, mutex, dfs);
  EXPECT_TRUE(inv_bfs.holds());
  EXPECT_EQ(inv_bfs.holds(), inv_dfs.holds());

  for (int i = 0; i < tg.num_trains; ++i) {
    auto goal = mc::loc_pred(tg.system, "Train(" + std::to_string(i) + ")",
                             "Cross");
    auto r_bfs = mc::reachable(tg.system, goal, bfs);
    auto r_dfs = mc::reachable(tg.system, goal, dfs);
    EXPECT_TRUE(r_bfs.reachable());
    EXPECT_EQ(r_bfs.reachable(), r_dfs.reachable());
  }
}

TEST(SearchOrder, BfsAndDfsAgreeOnBrp) {
  // The BRP is probabilistic; strip the branch distributions to obtain the
  // underlying TA for symbolic reachability.
  auto brp = models::make_brp();
  ta::System sys = sta::strip_probabilities(brp.system);

  mc::ReachOptions bfs;
  bfs.order = core::SearchOrder::kBfs;
  mc::ReachOptions dfs;
  dfs.order = core::SearchOrder::kDfs;

  auto success = [&brp](const ta::SymState& s) {
    return brp.is_success(s.locs);
  };
  auto r_bfs = mc::reachable(sys, success, bfs);
  auto r_dfs = mc::reachable(sys, success, dfs);
  EXPECT_TRUE(r_bfs.reachable());
  EXPECT_EQ(r_bfs.reachable(), r_dfs.reachable());
  EXPECT_FALSE(r_bfs.stats.truncated);
  EXPECT_FALSE(r_dfs.stats.truncated);

  // A[] "the sender is never in both failure modes at once" — trivially
  // true, forcing both orders to exhaust the same state space.
  auto inv = [&brp](const ta::SymState& s) {
    return !(brp.is_fail_nok(s.locs) && brp.is_fail_dk(s.locs));
  };
  auto inv_bfs = mc::check_invariant(sys, inv, bfs);
  auto inv_dfs = mc::check_invariant(sys, inv, dfs);
  EXPECT_TRUE(inv_bfs.holds());
  EXPECT_EQ(inv_bfs.holds(), inv_dfs.holds());
}

}  // namespace
