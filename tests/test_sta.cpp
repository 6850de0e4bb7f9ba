// Tests for the MODEST-layer utilities: model classification, the mctau
// stripping transformation, and the modes DES scheduler policies.
#include "sta/sta.h"

#include <gtest/gtest.h>

#include <bit>

#include "models/brp.h"
#include "pta/pta.h"
#include "sta/des.h"
#include "sta/mctau.h"

namespace {

using namespace quanta;
using ta::cc_ge;
using ta::cc_le;
using ta::ProbBranch;
using ta::ProcessBuilder;
using ta::SyncKind;

ta::System plain_ta() {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 5)});
  int b = pb.location("B");
  pb.edge(a, b, {cc_ge(x, 1)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  return sys;
}

TEST(Classify, DistinguishesTaPtaSta) {
  EXPECT_EQ(sta::classify(plain_ta()), sta::ModelClass::kTa);

  ta::System pta_sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pta::add_prob_edge(pb, a, {}, -1, SyncKind::kNone,
                     {ProbBranch{0.5, a, {}, nullptr, ""},
                      ProbBranch{0.5, b, {}, nullptr, ""}});
  pta_sys.add_process(pb.build());
  EXPECT_EQ(sta::classify(pta_sys), sta::ModelClass::kPta);

  ta::System sta_sys;
  ProcessBuilder qb("Q");
  qb.location("A", {}, false, false, /*exit_rate=*/2.5);
  sta_sys.add_process(qb.build());
  EXPECT_EQ(sta::classify(sta_sys), sta::ModelClass::kSta);
  EXPECT_STREQ(sta::to_string(sta::ModelClass::kPta), "PTA");
}

TEST(Mctau, StripPreservesIndicesAndExpandsBranches) {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 3)});
  int b = pb.location("B");
  int c = pb.location("C");
  pta::add_prob_edge(pb, a, {cc_ge(x, 1)}, -1, SyncKind::kNone,
                     {ProbBranch{0.9, b, {{x, 0}}, nullptr, "hi"},
                      ProbBranch{0.1, c, {}, nullptr, "lo"}},
                     "coin");
  sys.add_process(pb.build());

  ta::System stripped = sta::strip_probabilities(sys);
  EXPECT_FALSE(stripped.has_probabilistic());
  EXPECT_EQ(stripped.process_count(), sys.process_count());
  ASSERT_EQ(stripped.process(0).edges.size(), 2u);
  // Both expanded edges keep the original guard.
  for (const auto& e : stripped.process(0).edges) {
    ASSERT_EQ(e.guard.size(), 1u);
  }
  EXPECT_EQ(stripped.process(0).edges[0].target, b);
  EXPECT_EQ(stripped.process(0).edges[1].target, c);
  // Location count and names unchanged.
  EXPECT_EQ(stripped.process(0).locations.size(), 3u);
  EXPECT_EQ(stripped.process(0).locations[2].name, "C");
}

TEST(Mctau, BothBranchOutcomesReachableAfterStrip) {
  ta::System sys;
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  int c = pb.location("C");
  pta::add_prob_edge(pb, a, {}, -1, SyncKind::kNone,
                     {ProbBranch{0.999, b, {}, nullptr, ""},
                      ProbBranch{0.001, c, {}, nullptr, ""}});
  sys.add_process(pb.build());

  // Even the 0.1% branch is just "reachable" for mctau.
  auto to_c = sta::mctau_reach_probability(
      sys, [c](const ta::SymState& s) { return s.locs[0] == c; });
  EXPECT_FALSE(to_c.exact.has_value());
  auto nowhere = sta::mctau_reach_probability(
      sys, [](const ta::SymState&) { return false; });
  ASSERT_TRUE(nowhere.exact.has_value());
  EXPECT_EQ(*nowhere.exact, 0.0);
}

TEST(Des, AsapVsAlapWindow) {
  // One edge with window [1, 5]: ASAP fires at 1, ALAP at 5.
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 5)});
  int b = pb.location("B");
  pb.edge(a, b, {cc_ge(x, 1)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());

  auto terminal = [](const ta::ConcreteState& s) { return s.locs[0] == 1; };
  sta::DesOptions asap;
  asap.policy = sta::SchedulerPolicy::kAsap;
  auto r1 = sta::DesSimulator(sys, 1, asap).run(terminal);
  EXPECT_TRUE(r1.terminated);
  EXPECT_NEAR(r1.end_time, 1.0, 1e-6);

  sta::DesOptions alap;
  alap.policy = sta::SchedulerPolicy::kAlap;
  auto r2 = sta::DesSimulator(sys, 1, alap).run(terminal);
  EXPECT_TRUE(r2.terminated);
  EXPECT_NEAR(r2.end_time, 5.0, 1e-6);

  sta::DesOptions uni;
  uni.policy = sta::SchedulerPolicy::kUniformRandom;
  quanta::common::RunningStats st;
  sta::DesSimulator sim(sys, 17, uni);
  for (int i = 0; i < 2000; ++i) st.add(sim.run(terminal).end_time);
  EXPECT_NEAR(st.mean(), 3.0, 0.15);  // uniform over [1,5]
  EXPECT_GE(st.min(), 1.0 - 1e-9);
  EXPECT_LE(st.max(), 5.0 + 1e-9);
}

TEST(Des, WatchAndMonitorBookkeeping) {
  ta::System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("P");
  int a = pb.location("A", {cc_le(x, 2)});
  int b = pb.location("B", {cc_le(x, 4)});
  int c = pb.location("C");
  pb.edge(a, b, {cc_ge(x, 2)}, -1, SyncKind::kNone, {});
  pb.edge(b, c, {cc_ge(x, 4)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());

  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kAlap;
  sta::DesSimulator sim(sys, 5, opts);
  auto run = sim.run(
      [](const ta::ConcreteState& s) { return s.locs[0] == 2; },
      {[](const ta::ConcreteState& s) { return s.locs[0] == 1; }},
      {[](const ta::ConcreteState& s) { return s.locs[0] != 1; }});
  EXPECT_TRUE(run.terminated);
  EXPECT_NEAR(run.end_time, 4.0, 1e-6);
  EXPECT_NEAR(run.first_hit[0], 2.0, 1e-6);
  EXPECT_FALSE(run.monitor_ok[0]) << "monitor must trip when B is visited";
}

TEST(Des, TimeDivergenceEndsRun) {
  // No edges at all: the run cannot terminate and must not loop forever.
  ta::System sys;
  ProcessBuilder pb("P");
  pb.location("A");
  sys.add_process(pb.build());
  sta::DesSimulator sim(sys, 3, sta::DesOptions{});
  auto run = sim.run([](const ta::ConcreteState&) { return false; });
  EXPECT_FALSE(run.terminated);
}

TEST(Des, RunStreamIsPinned) {
  // The modes simulator's draws (window choice, time point, move choice,
  // probabilistic branch) are pinned like the SMC simulator's: a digest of
  // (terminated, end_time bits, first-hit bits) over 2000 BRP runs under
  // the uniform scheduler, taken from the std::mt19937_64-based code.
  auto brp = models::make_brp();
  sta::DesOptions opts;
  opts.policy = sta::SchedulerPolicy::kUniformRandom;
  sta::DesSimulator sim(brp.system, 0xde5, opts);
  auto terminal = [&brp](const ta::ConcreteState& s) {
    return brp.is_done(s.locs);
  };
  std::vector<sta::DesPredicate> watch = {
      [&brp](const ta::ConcreteState& s) { return brp.sender_waiting(s.locs); },
  };
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over each word's bytes
  auto add = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (int r = 0; r < 2000; ++r) {
    const sta::DesRun run = sim.run(terminal, watch);
    add(run.terminated ? 1 : 0);
    add(std::bit_cast<std::uint64_t>(run.end_time));
    add(std::bit_cast<std::uint64_t>(run.first_hit[0]));
  }
  EXPECT_EQ(h, 0x6053b1ef5b6fbb22ULL);
}

}  // namespace
