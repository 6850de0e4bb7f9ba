// Tests for the timed-automata model layer and its three semantics
// (symbolic / concrete / digital) on small hand-built systems.
#include "ta/model.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ta/concrete.h"
#include "ta/digital.h"
#include "ta/symbolic.h"

namespace {

using namespace quanta::ta;

// A single process: Idle --(x>=2, a!)--> Busy(x<=5) --(x>=3, tau, x:=0)--> Idle
// plus a listener: Wait --(a?)--> Got.
System make_pair_system() {
  System sys;
  int x = sys.add_clock("x");
  int a = sys.add_channel("a");

  ProcessBuilder pb("P");
  int idle = pb.location("Idle");
  int busy = pb.location("Busy", {cc_le(x, 5)});
  pb.edge(idle, busy, {cc_ge(x, 2)}, a, SyncKind::kSend, {}, nullptr, nullptr,
          "a!");
  pb.edge(busy, idle, {cc_ge(x, 3)}, -1, SyncKind::kNone, {{x, 0}}, nullptr,
          nullptr, "tau");
  sys.add_process(pb.build());

  ProcessBuilder qb("Q");
  int wait = qb.location("Wait");
  int got = qb.location("Got");
  qb.edge(wait, got, {}, a, SyncKind::kReceive, {}, nullptr, nullptr, "a?");
  sys.add_process(qb.build());
  return sys;
}

TEST(Model, ValidateAcceptsWellFormed) {
  System sys = make_pair_system();
  EXPECT_NO_THROW(sys.validate());
}

TEST(Model, ValidateRejectsBadEdges) {
  System sys;
  sys.add_clock("x");
  ProcessBuilder pb("P");
  int l = pb.location("L");
  pb.edge(l, 7);  // target out of range
  sys.add_process(pb.build());
  EXPECT_THROW(sys.validate(), std::invalid_argument);
}

TEST(Model, MaxConstantsScanGuardsAndInvariants) {
  System sys = make_pair_system();
  auto k = sys.max_constants();
  ASSERT_EQ(k.size(), 2u);
  EXPECT_EQ(k[0], 0);
  EXPECT_EQ(k[1], 5);  // max of 2, 3, 5
}

TEST(Symbolic, InitialIsDelayClosed) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  SymState init = sem.initial();
  // Initial state can delay arbitrarily: x unbounded above.
  EXPECT_GE(init.zone.upper_bound(1), quanta::dbm::kInf);
}

TEST(Symbolic, BinarySyncProducesJointMove) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);  // only the a! / a? handshake
  EXPECT_EQ(succs[0].move.participants.size(), 2u);
  EXPECT_EQ(succs[0].state.locs[0], 1);  // P in Busy
  EXPECT_EQ(succs[0].state.locs[1], 1);  // Q in Got
  // Guard x>=2 was applied: lower bound of x is 2.
  EXPECT_FALSE(succs[0].state.zone.satisfies(1, 0, quanta::dbm::bound_lt(2)));
}

TEST(Symbolic, InvariantBoundsDelay) {
  System sys = make_pair_system();
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  const auto& busy = succs[0].state;
  // In Busy, the invariant x<=5 caps the zone.
  EXPECT_FALSE(busy.zone.satisfies(0, 1, quanta::dbm::bound_le(-6)));
  EXPECT_TRUE(busy.zone.satisfies(0, 1, quanta::dbm::bound_le(-5)));
}

TEST(Symbolic, CommittedLocationsBlockOthers) {
  System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("C");
  int a = pb.location("A");
  int b = pb.location("B", {}, /*committed=*/true);
  int c = pb.location("C");
  pb.edge(a, b, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "go");
  pb.edge(b, c, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "fin");
  sys.add_process(pb.build());

  ProcessBuilder qb("D");
  int d0 = qb.location("D0");
  int d1 = qb.location("D1");
  qb.edge(d0, d1, {cc_ge(x, 0)}, -1, SyncKind::kNone, {}, nullptr, nullptr,
          "other");
  sys.add_process(qb.build());

  SymbolicSemantics sem(sys);
  SymState init = sem.initial();
  // Move C into its committed location.
  SymState committed;
  bool found = false;
  for (auto& tr : sem.successors(init)) {
    if (tr.state.locs[0] == 1) {
      committed = tr.state;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  // From the committed state, only C may move.
  for (auto& tr : sem.successors(committed)) {
    EXPECT_EQ(tr.move.participants.front().first, 0)
        << "non-committed process moved while a committed location is active";
  }
  // And no delay happened entering the committed location: x == 0 exactly?
  // (x was not reset, so instead check: zone in committed state admits no
  // delay closure beyond what the source allowed — here B has no invariant
  // but the state is committed, so up() must not have been applied. The zone
  // of a committed state equals the guard-constrained source zone.)
  EXPECT_TRUE(sem.delay_forbidden(committed.locs, committed.vars));
}

TEST(Symbolic, UrgentLocationForbidsDelay) {
  System sys;
  int x = sys.add_clock("x");
  ProcessBuilder pb("U");
  int a = pb.location("A");
  int b = pb.location("B", {}, false, /*urgent=*/true);
  pb.edge(a, b, {cc_le(x, 3)}, -1, SyncKind::kNone, {}, nullptr, nullptr, "go");
  pb.edge(b, a, {}, -1, SyncKind::kNone, {}, nullptr, nullptr, "back");
  sys.add_process(pb.build());
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  // Entering the urgent location with x<=3: no delay closure is applied, so
  // the upper bound stays 3 (a non-urgent target would relax it to infinity).
  EXPECT_EQ(succs[0].state.zone.upper_bound(1), quanta::dbm::bound_le(3));
}

TEST(Symbolic, BroadcastReachesAllReceivers) {
  System sys;
  sys.add_clock("x");
  int ch = sys.add_channel("b", /*broadcast=*/true);
  ProcessBuilder pb("S");
  int s0 = pb.location("S0");
  int s1 = pb.location("S1");
  pb.edge(s0, s1, {}, ch, SyncKind::kSend, {}, nullptr, nullptr, "b!");
  sys.add_process(pb.build());
  for (int r = 0; r < 2; ++r) {
    ProcessBuilder qb("R" + std::to_string(r));
    int r0 = qb.location("R0");
    int r1 = qb.location("R1");
    qb.edge(r0, r1, {}, ch, SyncKind::kReceive, {}, nullptr, nullptr, "b?");
    sys.add_process(qb.build());
  }
  SymbolicSemantics sem(sys);
  auto succs = sem.successors(sem.initial());
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0].move.participants.size(), 3u);
  EXPECT_EQ(succs[0].state.locs, (std::vector<int>{1, 1, 1}));
}

TEST(MoveList, BuildsRetainsAndDiscardsInPlace) {
  MoveList list;
  list.add(0, 1);
  list.close();
  list.add(2, 3);
  list.add(4, 5);
  list.close();
  list.add(6, 7);
  list.discard();  // an abandoned move leaves no trace
  list.add(8, 9);
  list.close();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(std::vector<Participant>(list[1].begin(), list[1].end()),
            (std::vector<Participant>{{2, 3}, {4, 5}}));
  EXPECT_EQ(list[2].front(), (Participant{8, 9}));

  list.retain([](MoveView m) { return m.front().first != 2; });
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].front(), (Participant{0, 1}));
  EXPECT_EQ(list[1].size(), 1u);
  EXPECT_EQ(list[1].front(), (Participant{8, 9}));
  EXPECT_EQ(Move(list[1]).participants, (std::vector<Participant>{{8, 9}}));

  list.clear();
  EXPECT_TRUE(list.empty());
}

TEST(MoveList, RefillingAReusedListMatchesAFreshOne) {
  // Enumerators clear the caller's list: a list reused across states holds
  // exactly what a fresh list would, and the concrete and digital filters
  // keep the clock-enabled moves of the symbolic enumeration, in order.
  System sys = make_pair_system();
  SymbolicSemantics sym(sys);
  ConcreteSemantics con(sys);
  MoveList reused;
  sym.enabled_moves({1, 0}, sys.vars().initial(), reused);  // Busy: tau
  ASSERT_EQ(reused.size(), 1u);
  EXPECT_EQ(reused[0].front(), (Participant{0, 1}));

  ConcreteState s = con.initial();
  con.enabled_moves_now(s, reused);
  EXPECT_TRUE(reused.empty()) << "x>=2 does not hold at time 0";
  con.delay(s, 2.0);
  con.enabled_moves_now(s, reused);
  MoveList fresh;
  sym.enabled_moves(s.locs, s.vars, fresh);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(std::equal(reused[i].begin(), reused[i].end(),
                           fresh[i].begin(), fresh[i].end()));
  }
}

TEST(Concrete, DelayAndGuards) {
  System sys = make_pair_system();
  ConcreteSemantics sem(sys);
  ConcreteState s = sem.initial();
  MoveList moves;
  sem.enabled_moves_now(s, moves);
  EXPECT_TRUE(moves.empty());  // x>=2 not yet satisfied
  sem.delay(s, 2.5);
  sem.enabled_moves_now(s, moves);
  ASSERT_EQ(moves.size(), 1u);
  sem.execute(s, moves[0]);
  EXPECT_EQ(s.locs[0], 1);
  EXPECT_EQ(s.locs[1], 1);
  // In Busy the invariant allows at most 5 - 2.5 further delay.
  EXPECT_NEAR(sem.invariant_max_delay(s), 2.5, 1e-9);
}

TEST(Concrete, MinEnablingDelay) {
  System sys = make_pair_system();
  ConcreteSemantics sem(sys);
  ConcreteState s = sem.initial();
  const Edge& send = sys.process(0).edges[0];
  EXPECT_NEAR(sem.min_enabling_delay(send, s), 2.0, 1e-9);
  sem.delay(s, 3.0);
  EXPECT_NEAR(sem.min_enabling_delay(send, s), 0.0, 1e-9);
}

TEST(Digital, UnitStepsRespectInvariants) {
  System sys = make_pair_system();
  DigitalSemantics sem(sys);
  DigitalState s = sem.initial();
  MoveList moves;
  sem.enabled_moves(s, moves);
  EXPECT_TRUE(moves.empty());
  ASSERT_TRUE(sem.can_delay(s));
  sem.delay_one(s, s);
  sem.delay_one(s, s);  // x = 2
  sem.enabled_moves(s, moves);
  ASSERT_EQ(moves.size(), 1u);
  DigitalState busy;
  sem.apply(s, moves[0], busy);
  EXPECT_EQ(busy.locs[0], 1);
  // Invariant x<=5: can delay 3 more times, then no further.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sem.can_delay(busy)) << "step " << i;
    sem.delay_one(busy, busy);
  }
  EXPECT_FALSE(sem.can_delay(busy));
}

TEST(Digital, ClockCappingIsStable) {
  System sys = make_pair_system();
  DigitalSemantics sem(sys);
  DigitalState s = sem.initial();
  for (int i = 0; i < 100; ++i) {
    if (!sem.can_delay(s)) break;
    sem.delay_one(s, s);
  }
  EXPECT_LE(s.clocks[1], sem.cap(1));
  DigitalState again;
  sem.delay_one(s, again);
  EXPECT_EQ(again.clocks[1], s.clocks[1]) << "capped clock must not grow";
}

TEST(Digital, RejectsDiagonalConstraints) {
  System sys;
  int x = sys.add_clock("x");
  int y = sys.add_clock("y");
  ProcessBuilder pb("P");
  int a = pb.location("A");
  int b = pb.location("B");
  pb.edge(a, b, {cc_diff_le(x, y, 3)}, -1, SyncKind::kNone, {});
  sys.add_process(pb.build());
  EXPECT_THROW(DigitalSemantics{sys}, std::invalid_argument);
}

}  // namespace
