#include "mc/deadlock.h"

#include "dbm/federation.h"

namespace quanta::mc {

namespace {

/// Returns the (possibly empty) set of valuations of s.zone that are
/// deadlocked: unable to take any discrete move now or after delaying.
/// `moves` is the caller's reused enumeration scratch.
dbm::Federation deadlocked_part(const ta::SymbolicSemantics& sem,
                                const ta::SymState& s, ta::MoveList& moves) {
  dbm::Federation dead(s.zone);
  const bool may_delay = !sem.delay_forbidden(s.locs, s.vars);
  sem.enabled_moves(s.locs, s.vars, moves);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    dbm::Dbm enabled = s.zone;
    bool ok = true;
    for (const auto& [p, e] : moves[i]) {
      const ta::Edge& edge =
          sem.system().process(p).edges.at(static_cast<std::size_t>(e));
      if (!ta::SymbolicSemantics::constrain_guard(edge, enabled)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (may_delay) {
      // All valuations that can delay into the enabled region escape the
      // deadlock; the stored zone is convex and invariant-closed, so the
      // whole delay path stays legal.
      enabled.down();
      if (!enabled.intersect(s.zone)) continue;
    }
    dead.subtract(enabled);
    if (dead.is_empty()) break;
  }
  return dead;
}

}  // namespace

dbm::Dbm deadlocked_part_witness(const ta::SymbolicSemantics& sem,
                                 const ta::SymState& s) {
  ta::MoveList moves;
  dbm::Federation dead = deadlocked_part(sem, s, moves);
  if (dead.is_empty()) {
    dbm::Dbm empty(s.zone.dim());
    empty.set(0, 0, dbm::bound_lt(-1));
    return empty;
  }
  return dead.zones().front();
}

DeadlockResult check_deadlock_freedom(const ta::System& sys,
                                      const ReachOptions& opts) {
  ta::SymbolicSemantics sem(sys, ta::SymbolicSemantics::Options{opts.extrapolate});
  ta::MoveList moves;
  StatePredicate has_deadlock = [&sem, &moves](const ta::SymState& s) {
    return !deadlocked_part(sem, s, moves).is_empty();
  };
  ReachResult r = reachable(sys, has_deadlock, opts);
  DeadlockResult result;
  result.verdict = common::negate(r.verdict);
  result.stats = r.stats;
  result.trace = std::move(r.trace);
  result.deadlocked_state = std::move(r.witness);
  return result;
}

}  // namespace quanta::mc
