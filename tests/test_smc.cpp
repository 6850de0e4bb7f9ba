// Tests for the statistical model checker: calibration on models with
// analytically known probabilities, plus the train-gate Fig. 4 behaviour.
#include "smc/simulator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/stats.h"
#include "models/brp.h"
#include "models/train_gate.h"
#include "smc/cdf.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProcessBuilder;
using ta::SyncKind;

/// One process, exponential rate `rate` in Init, single edge to Done.
/// First-hit time is Exp(rate): P(hit <= T) = 1 - exp(-rate*T).
ta::System make_exponential(double rate) {
  ta::System sys;
  ProcessBuilder pb("P");
  int init = pb.location("Init", {}, false, false, rate);
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
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

TEST(Simulator, ExponentialHitProbability) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);
  exec::Executor ex(4);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 1, ex);
  double expected = 1.0 - std::exp(-0.5 * 2.0);  // ~0.632
  EXPECT_NEAR(est.p_hat, expected, 0.02);
  // The CI must bracket the point estimate and be reasonably tight; whether
  // it covers the true value is itself probabilistic (95%), so allow slack.
  EXPECT_LE(est.ci_low, est.p_hat);
  EXPECT_GE(est.ci_high, est.p_hat);
  EXPECT_LT(est.ci_high - est.ci_low, 0.03);
  EXPECT_NEAR(0.5 * (est.ci_low + est.ci_high), expected, 0.02);
}

TEST(Simulator, UniformDelayUnderInvariant) {
  // Init with invariant x<=10 and edge guard x>=0: delay ~ U(0,10); hit by
  // time 4 with probability 0.4.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int init = pb.location("Init", {cc_le(x, 10)});
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
  sys.add_process(pb.build());

  auto prop = done_within(sys, 4.0);
  exec::Executor ex(4);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 2, ex);
  EXPECT_NEAR(est.p_hat, 0.4, 0.02);
}

TEST(Simulator, GuardLowerBoundShiftsWindow) {
  // Invariant x<=10, guard x>=6: delay ~ U(6,10); by time 8 -> 0.5.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int init = pb.location("Init", {cc_le(x, 10)});
  int done = pb.location("Done");
  pb.edge(init, done, {cc_ge(x, 6)}, -1, SyncKind::kNone, {}, nullptr, nullptr,
          "fire");
  sys.add_process(pb.build());
  auto prop = done_within(sys, 8.0);
  exec::Executor ex(4);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 3, ex);
  EXPECT_NEAR(est.p_hat, 0.5, 0.02);
  // Nothing can ever fire before 6.
  auto early = smc::estimate_probability_runs(sys, done_within(sys, 5.9), 2000,
                                              0.05, 4, ex);
  EXPECT_EQ(early.hits, 0u);
}

TEST(Simulator, RaceBetweenTwoExponentials) {
  // Two components with rates 1 and 3 racing to their Done locations; the
  // probability the fast one wins is 3/4.
  ta::System sys;
  for (int i = 0; i < 2; ++i) {
    ProcessBuilder pb("P" + std::to_string(i));
    int init = pb.location("Init", {}, false, false, i == 0 ? 1.0 : 3.0);
    int done = pb.location("Done");
    pb.edge(init, done, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fire");
    sys.add_process(pb.build());
  }
  // Goal: P1 (fast) reaches Done while P0 is still in Init.
  smc::TimeBoundedReach prop;
  prop.time_bound = 1e6;
  prop.goal = [](const ta::ConcreteState& s) {
    return s.locs[1] == 1 && s.locs[0] == 0;
  };
  exec::Executor ex(4);
  auto est = smc::estimate_probability_runs(sys, prop, 20000, 0.05, 5, ex);
  EXPECT_NEAR(est.p_hat, 0.75, 0.02);
}

/// FNV-1a over the 8 bytes of each word: a digest of a run stream that
/// changes if any draw, bound or draw order changes.
struct StreamDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Digest of (satisfied, hit_time bits, steps) over runs 0..1999, each run
/// on its own RngStream seed through one reseeded Simulator.
struct StreamPin {
  std::uint64_t digest = 0;
  std::size_t satisfied = 0;
  std::size_t steps = 0;
};

StreamPin run_stream_pin(const ta::System& sys,
                         const smc::TimeBoundedReach& prop, std::uint64_t seed) {
  const common::RngStream streams(seed);
  smc::Simulator sim(sys, 0);
  StreamDigest d;
  StreamPin pin;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    sim.reseed(streams.seed_for(i));
    const smc::RunResult r = sim.run(prop);
    d.add(r.satisfied ? 1 : 0);
    d.add(std::bit_cast<std::uint64_t>(r.hit_time));
    d.add(r.steps);
    pin.satisfied += r.satisfied ? 1 : 0;
    pin.steps += r.steps;
  }
  pin.digest = d.h;
  return pin;
}

TEST(Simulator, RunStreamIsPinned) {
  // Every random draw, its bounds and its order are part of the engine's
  // contract: estimates, hit times and checkpoint chains are bit-identical
  // across builds. These digests were taken from the std::mt19937_64-based
  // simulator; any change to the step loop must reproduce them exactly.
  auto tg = models::make_train_gate(4);
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  smc::TimeBoundedReach cross_prop;
  cross_prop.time_bound = 100.0;
  cross_prop.goal =
      common::loc_index_pred<ta::ConcreteState>(tg.trains[0], cross);
  const StreamPin tg_pin = run_stream_pin(tg.system, cross_prop, 0x5eed);
  EXPECT_EQ(tg_pin.digest, 0x0e2025c11a9e065bULL);
  EXPECT_EQ(tg_pin.satisfied, 2000u);
  EXPECT_EQ(tg_pin.steps, 51395u);

  // BRP has probabilistic edges: this pins the per-branch weighted draw.
  auto brp = models::make_brp();
  smc::TimeBoundedReach done_prop;
  done_prop.time_bound = 200.0;
  done_prop.goal = [&brp](const ta::ConcreteState& s) {
    return brp.is_done(s.locs);
  };
  const StreamPin brp_pin = run_stream_pin(brp.system, done_prop, 0xb2b);
  EXPECT_EQ(brp_pin.digest, 0xda795c499d501bd8ULL);
  EXPECT_EQ(brp_pin.satisfied, 2000u);
  EXPECT_EQ(brp_pin.steps, 130536u);
}

TEST(Estimate, ChernoffSampleCountIsUsed) {
  ta::System sys = make_exponential(1.0);
  exec::Executor ex(4);
  auto est =
      smc::estimate_probability(sys, done_within(sys, 1.0), 0.05, 0.05, 6, ex);
  EXPECT_EQ(est.runs, quanta::common::chernoff_sample_count(0.05, 0.05));
}

TEST(Sprt, AcceptsAndRejectsCorrectly) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);  // true p ~ 0.632
  smc::SprtOptions opts;
  opts.indifference = 0.05;
  exec::Executor ex(4);
  auto low = smc::sprt_test(sys, prop, 0.4, opts, 7, ex);
  EXPECT_EQ(low.verdict, smc::SprtVerdict::kAccepted) << "p=0.63 >= 0.4";
  auto high = smc::sprt_test(sys, prop, 0.9, opts, 8, ex);
  EXPECT_EQ(high.verdict, smc::SprtVerdict::kRejected) << "p=0.63 < 0.9";
  // SPRT should need far fewer runs than the Chernoff bound for easy cases.
  EXPECT_LT(low.runs, 500u);
}

TEST(Cdf, MatchesExponentialDistribution) {
  ta::System sys = make_exponential(1.0);
  auto prop = done_within(sys, 10.0);
  exec::Executor ex(4);
  auto times = smc::sample_hit_times(sys, prop, 20000, 9, ex, {}).times;
  auto series = smc::empirical_cdf(times, 20000, 10.0, 11);
  ASSERT_EQ(series.grid.size(), 11u);
  for (std::size_t i = 0; i < series.grid.size(); ++i) {
    double expected = 1.0 - std::exp(-series.grid[i]);
    EXPECT_NEAR(series.prob[i], expected, 0.02) << "t=" << series.grid[i];
  }
}

TEST(TrainGateSmc, CommittedStopHappensInstantly) {
  // Sanity: simulation of the full train-gate never violates mutual
  // exclusion and eventually gets a train across.
  auto tg = models::make_train_gate(4);
  std::vector<int> cross;
  for (int i = 0; i < tg.num_trains; ++i) {
    cross.push_back(tg.system.process(tg.trains[i]).location_index("Cross"));
  }
  smc::TimeBoundedReach prop;
  prop.time_bound = 200.0;
  auto trains = tg.trains;
  prop.goal = [trains, cross](const ta::ConcreteState& s) {
    int n = 0;
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] == cross[i]) ++n;
    }
    EXPECT_LE(n, 1) << "two trains on the bridge during simulation";
    return false;  // never stop early; we only monitor
  };
  smc::Simulator sim(tg.system, 10);
  for (int r = 0; r < 50; ++r) {
    auto res = sim.run(prop);
    EXPECT_FALSE(res.satisfied);
  }
}

TEST(TrainGateSmc, FasterTrainsCrossSooner) {
  // Fig. 4 shape: train rates are 1+id, so higher-id trains approach sooner
  // and their crossing-time CDF dominates at small t.
  auto tg = models::make_train_gate(6);
  exec::Executor ex(4);
  auto cdf_for = [&tg, &ex](int train, std::uint64_t seed) {
    int p = tg.trains[static_cast<std::size_t>(train)];
    int cross = tg.system.process(p).location_index("Cross");
    smc::TimeBoundedReach prop;
    prop.time_bound = 100.0;
    prop.goal = [p, cross](const ta::ConcreteState& s) {
      return s.locs[static_cast<std::size_t>(p)] == cross;
    };
    auto times =
        smc::sample_hit_times(tg.system, prop, 2000, seed, ex, {}).times;
    return smc::empirical_cdf(times, 2000, 100.0, 21);
  };
  auto slow = cdf_for(0, 21);
  auto fast = cdf_for(5, 22);
  // At t = 15 the fast train must clearly dominate.
  EXPECT_GT(fast.prob[3], slow.prob[3] + 0.1)
      << "fast=" << fast.prob[3] << " slow=" << slow.prob[3];
  // Both eventually cross with high probability.
  EXPECT_GT(fast.prob.back(), 0.95);
  EXPECT_GT(slow.prob.back(), 0.80);
}

}  // namespace
