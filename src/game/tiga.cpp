#include "game/tiga.h"

#include "ckpt/snapshot_ta.h"
#include "common/fault.h"
#include "core/explore.h"

namespace quanta::game {

namespace {

bool move_controllable(const ta::System& sys, ta::MoveView m) {
  for (const auto& [p, e] : m) {
    if (!sys.process(p).edges.at(static_cast<std::size_t>(e)).controllable) {
      return false;
    }
  }
  return true;
}

constexpr std::uint32_t kObjReach = 1;
constexpr std::uint32_t kObjSafety = 2;

/// Extra section of a Provider::kGame checkpoint: the attractor fixpoint's
/// progress — objective kind, completed sweeps, the winning flags and (for
/// reachability) the witness actions. Written whole on every save during the
/// solving phase; the last occurrence along the chain wins.
constexpr std::uint32_t kSecGameFixpoint = 5;

}  // namespace

std::optional<StrategyAction> Strategy::action(const ta::DigitalState& s) const {
  auto it = actions_.find(s);
  if (it == actions_.end()) return std::nullopt;
  return it->second;
}

TimedGame::TimedGame(const ta::System& sys, core::SearchLimits limits,
                     ckpt::Options checkpoint)
    : sem_(sys),
      limits_(std::move(limits)),
      checkpoint_(std::move(checkpoint)) {
  limits_.validate("game.tiga");
}

std::uint64_t TimedGame::solve_fingerprint(std::uint32_t objective,
                                           const GamePredicate& pred) const {
  ckpt::Fingerprint fp;
  fp.mix(0x54494741u)  // "TIGA"
      .mix(ckpt::fingerprint(sem_.system()))
      .mix(objective)
      .mix_str(pred.canonical());
  return fp.digest();
}

void TimedGame::encode(ckpt::io::Writer& w, bool base, std::size_t) const {
  const std::size_t from = base ? 0 : saved_expanded_;
  w.u64(store_.size());
  w.u64(from);
  w.u64(expanded_ - from);
  for (std::size_t i = from; i < expanded_; ++i) {
    const Node& node = nodes_[i];
    w.u32(static_cast<std::uint32_t>(node.ctrl.size()));
    for (const auto& [to, move] : node.ctrl) {
      w.i32(to);
      ckpt::write_move(w, move);
    }
    w.u32(static_cast<std::uint32_t>(node.unctrl.size()));
    for (std::int32_t to : node.unctrl) w.i32(to);
    w.i32(node.tick);
  }
}

bool TimedGame::decode(ckpt::io::Reader& r, bool, std::size_t states) {
  nodes_.resize(states);
  const std::uint64_t n = r.u64();
  const std::uint64_t from = r.u64();
  const std::uint64_t count = r.u64();
  if (!r.ok() || n != states || from != expanded_ || from + count > n ||
      !r.fits(count, 12)) {
    return false;
  }
  const auto valid_id = [n](std::int32_t id) {
    return id >= 0 && static_cast<std::uint64_t>(id) < n;
  };
  for (std::uint64_t i = from; i < from + count; ++i) {
    Node& node = nodes_[static_cast<std::size_t>(i)];
    node = Node{};
    const std::uint32_t n_ctrl = r.u32();
    if (!r.ok() || !r.fits(n_ctrl, 8)) return false;
    node.ctrl.reserve(n_ctrl);
    for (std::uint32_t k = 0; k < n_ctrl; ++k) {
      const std::int32_t to = r.i32();
      ta::Move m;
      if (!valid_id(to) || !ckpt::read_move(r, &m)) return false;
      node.ctrl.emplace_back(to, std::move(m));
    }
    const std::uint32_t n_unctrl = r.u32();
    if (!r.ok() || !r.fits(n_unctrl, 4)) return false;
    node.unctrl.reserve(n_unctrl);
    for (std::uint32_t k = 0; k < n_unctrl; ++k) {
      const std::int32_t to = r.i32();
      if (!valid_id(to)) return false;
      node.unctrl.push_back(to);
    }
    node.tick = r.i32();
    if (node.tick != -1 && !valid_id(node.tick)) return false;
  }
  expanded_ = static_cast<std::size_t>(from + count);
  return r.ok();
}

void TimedGame::save_fixpoint() {
  ckpt::io::Writer w;
  w.u32(objective_);
  w.u64(fix_.sweeps);
  w.u64(fix_.win.size());
  for (char c : fix_.win) w.u8(static_cast<std::uint8_t>(c));
  w.u64(fix_.act.size());
  for (const StrategyAction& a : fix_.act) {
    w.u8(a.kind == ActionKind::kMove ? 1 : 0);
    ckpt::write_move(w, a.move);
  }
  chain_.save(build_stats_.states_explored, build_stats_.transitions, nullptr,
              ckpt::Section{kSecGameFixpoint, w.take()});
}

bool TimedGame::decode_extra(const std::vector<ckpt::Section>& record,
                             std::size_t states) {
  const ckpt::Section* sec = ckpt::find_section(record, kSecGameFixpoint);
  if (sec == nullptr) return true;
  ckpt::io::Reader r(sec->payload);
  const std::uint32_t obj = r.u32();
  const std::uint64_t sweeps = r.u64();
  const std::uint64_t n = r.u64();
  if (!r.ok() || obj != objective_ || n != states || !r.fits(n, 1)) {
    return false;
  }
  std::vector<char> win;
  win.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    win.push_back(static_cast<char>(r.u8() != 0 ? 1 : 0));
  }
  const std::uint64_t n_act = r.u64();
  if (!r.ok() || (n_act != 0 && n_act != n) || !r.fits(n_act, 2)) {
    return false;
  }
  std::vector<StrategyAction> act(static_cast<std::size_t>(n_act));
  for (std::uint64_t i = 0; i < n_act; ++i) {
    act[i].kind = r.u8() != 0 ? ActionKind::kMove : ActionKind::kWait;
    if (!ckpt::read_move(r, &act[i].move)) return false;
  }
  if (!r.ok()) return false;
  fix_ = FixpointState{true, sweeps, std::move(win), std::move(act)};
  return true;
}

void TimedGame::mark_saved() { saved_expanded_ = expanded_; }

void TimedGame::reset() {
  nodes_.clear();
  expanded_ = 0;
  fix_ = FixpointState{};
}

void TimedGame::build_graph(bool resumed) {
  if (built_) return;

  auto intern = [&](const ta::DigitalState& s) -> std::int32_t {
    auto [id, inserted] = store_.intern(s);
    if (inserted) {
      nodes_.emplace_back();
      work_.push(id);
    }
    return id;
  };
  ta::MoveList enabled;
  ta::DigitalState state;
  ta::DigitalState next;

  if (!resumed) intern(sem_.initial());
  build_stats_ = core::explore(
      store_, work_, limits_,
      [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        store_.state_into(e.id, state);
        Node node;
        std::size_t taken = 0;
        sem_.enabled_moves(state, enabled);
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          ++taken;
          sem_.apply(state, enabled[i], next);
          std::int32_t to = intern(next);
          if (move_controllable(sem_.system(), enabled[i])) {
            node.ctrl.emplace_back(to, ta::Move(enabled[i]));
          } else {
            node.unctrl.push_back(to);
          }
        }
        if (sem_.can_delay(state)) {
          sem_.delay_one(state, next);
          node.tick = intern(next);
          ++taken;
        }
        nodes_[static_cast<std::size_t>(e.id)] = std::move(node);
        ++expanded_;
        return taken;
      },
      chain_.hook());
  chain_.add_baseline(build_stats_);
  built_ = true;
}

bool TimedGame::prepare(std::uint32_t objective, const GamePredicate& pred,
                        GameResult* result) {
  objective_ = objective;
  fix_ = FixpointState{};
  // The graph of an earlier solve on this instance is already in memory
  // and objective-independent — never replace it with a disk image.
  const bool resumed =
      chain_.start(ckpt::Provider::kGame, solve_fingerprint(objective, pred),
                   &result->resume, /*may_resume=*/!built_);
  build_graph(resumed);
  result->stats = build_stats_;
  result->states_explored = nodes_.size();
  if (build_stats_.truncated) {
    result->verdict = common::Verdict::kUnknown;
    return false;
  }
  // Fixpoint progress from a chain whose graph was still growing would be
  // sized for the smaller graph; recompute from scratch instead. (Cannot
  // happen with our own checkpoints — the fixpoint section is only written
  // once the build is complete — but the disk is not trusted.)
  if (fix_.restored && fix_.win.size() != nodes_.size()) {
    fix_ = FixpointState{};
  }
  return true;
}

GameResult TimedGame::solve_reachability(const GamePredicate& goal) {
  return common::governed(
      [&] { return solve_reachability_impl(goal); },
      [this](common::StopReason r) {
        GameResult res;
        res.stats.stop_for(r);
        res.resume.path = checkpoint_.path;
        return res;
      });
}

GameResult TimedGame::solve_reachability_impl(const GamePredicate& goal) {
  GameResult result;
  if (!prepare(kObjReach, goal, &result)) return result;
  const std::size_t n = nodes_.size();
  if (!fix_.restored) {
    fix_.win.assign(n, 0);
    fix_.act.assign(n, StrategyAction{});
    ta::DigitalState state;
    for (std::size_t i = 0; i < n; ++i) {
      store_.state_into(static_cast<std::int32_t>(i), state);
      if (goal(state)) fix_.win[i] = 1;
    }
  }
  std::vector<char>& win = fix_.win;
  std::vector<StrategyAction>& act = fix_.act;
  const std::uint64_t interval = checkpoint_.interval;
  // Least fixpoint of the controllable predecessor (environment preempts).
  // Sweeps run in index order, so the (win, act, sweeps) triple at a sweep
  // boundary determines the rest of the computation — that is exactly what
  // a kSecGameFixpoint snapshot carries.
  bool changed = true;
  while (changed) {
    // Fault-injection site (tests): a kDeadline fault forces the next poll
    // to report kTimeLimit at a deterministic sweep boundary.
    common::FaultInjector::site("game.tiga.sweep");
    const common::StopReason r = limits_.budget.poll();
    if (r != common::StopReason::kCompleted) {
      if (checkpoint_.enabled() && checkpoint_.save_on_stop) save_fixpoint();
      result.stats.stop_for(r);
      result.verdict = common::Verdict::kUnknown;
      return result;
    }
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (win[i]) continue;
      const Node& node = nodes_[i];
      bool unctrl_safe = true;
      for (std::int32_t u : node.unctrl) {
        if (!win[static_cast<std::size_t>(u)]) {
          unctrl_safe = false;
          break;
        }
      }
      if (!unctrl_safe) continue;
      // Controller needs some way to make progress into the winning set.
      const ta::Move* witness = nullptr;
      bool wait_wins = node.tick >= 0 && win[static_cast<std::size_t>(node.tick)];
      for (const auto& [to, move] : node.ctrl) {
        if (win[static_cast<std::size_t>(to)]) {
          witness = &move;
          break;
        }
      }
      // Time blocked by an invariant with only (winning) uncontrollable
      // moves enabled: runs must progress, so the environment is forced to
      // fire one of them — the controller wins by waiting.
      bool forced_env = node.tick < 0 && !node.unctrl.empty();
      if (witness != nullptr || wait_wins || forced_env) {
        win[i] = 1;
        if (witness != nullptr) {
          act[i] = StrategyAction{ActionKind::kMove, *witness};
        } else {
          act[i] = StrategyAction{ActionKind::kWait, {}};
        }
        changed = true;
      }
    }
    ++fix_.sweeps;
    if (checkpoint_.enabled() && interval != 0) save_fixpoint();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!win[i]) continue;
    ++result.winning_states;
    result.strategy.actions_.emplace(store_.state(static_cast<std::int32_t>(i)),
                                     act[i]);
  }
  result.verdict = (!nodes_.empty() && win[0]) ? common::Verdict::kHolds
                                               : common::Verdict::kViolated;
  return result;
}

GameResult TimedGame::solve_safety(const GamePredicate& safe) {
  return common::governed(
      [&] { return solve_safety_impl(safe); },
      [this](common::StopReason r) {
        GameResult res;
        res.stats.stop_for(r);
        res.resume.path = checkpoint_.path;
        return res;
      });
}

GameResult TimedGame::solve_safety_impl(const GamePredicate& safe) {
  GameResult result;
  if (!prepare(kObjSafety, safe, &result)) return result;
  const std::size_t n = nodes_.size();
  if (!fix_.restored) {
    fix_.win.assign(n, 0);
    ta::DigitalState state;
    for (std::size_t i = 0; i < n; ++i) {
      store_.state_into(static_cast<std::int32_t>(i), state);
      if (safe(state)) fix_.win[i] = 1;
    }
  }
  std::vector<char>& win = fix_.win;
  const std::uint64_t interval = checkpoint_.interval;
  // Greatest fixpoint: prune states the controller cannot keep safe. Same
  // sweep-boundary checkpoint discipline as the reachability attractor
  // (the safety strategy is extracted after convergence, so no act array).
  bool changed = true;
  while (changed) {
    common::FaultInjector::site("game.tiga.sweep");
    const common::StopReason r = limits_.budget.poll();
    if (r != common::StopReason::kCompleted) {
      if (checkpoint_.enabled() && checkpoint_.save_on_stop) save_fixpoint();
      result.stats.stop_for(r);
      result.verdict = common::Verdict::kUnknown;
      return result;
    }
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (!win[i]) continue;
      const Node& node = nodes_[i];
      bool unctrl_safe = true;
      for (std::int32_t u : node.unctrl) {
        if (!win[static_cast<std::size_t>(u)]) {
          unctrl_safe = false;
          break;
        }
      }
      bool has_safe_ctrl = false;
      for (const auto& [to, move] : node.ctrl) {
        if (win[static_cast<std::size_t>(to)]) {
          has_safe_ctrl = true;
          break;
        }
      }
      bool can_wait = node.tick >= 0 && win[static_cast<std::size_t>(node.tick)];
      // A timelocked state with no moves at all is trivially safe to hold.
      bool frozen = node.ctrl.empty() && node.tick < 0;
      if (!(unctrl_safe && (has_safe_ctrl || can_wait || frozen))) {
        win[i] = 0;
        changed = true;
      }
    }
    ++fix_.sweeps;
    if (checkpoint_.enabled() && interval != 0) save_fixpoint();
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!win[i]) continue;
    ++result.winning_states;
    const Node& node = nodes_[i];
    StrategyAction action{ActionKind::kWait, {}};
    if (!(node.tick >= 0 && win[static_cast<std::size_t>(node.tick)])) {
      for (const auto& [to, move] : node.ctrl) {
        if (win[static_cast<std::size_t>(to)]) {
          action = StrategyAction{ActionKind::kMove, move};
          break;
        }
      }
    }
    result.strategy.actions_.emplace(store_.state(static_cast<std::int32_t>(i)),
                                     action);
  }
  result.verdict = (!nodes_.empty() && win[0]) ? common::Verdict::kHolds
                                               : common::Verdict::kViolated;
  return result;
}

namespace {

/// Closed-loop successor expansion shared by the two verifiers. Returns
/// false immediately when `visit` returns false for a reachable state.
bool closed_loop_explore(
    const ta::System& sys, const Strategy& strategy,
    const std::function<bool(const ta::DigitalState&)>& prune,
    const std::function<bool(const ta::DigitalState&)>& visit,
    std::vector<ta::DigitalState>* out_states,
    std::vector<std::vector<std::int32_t>>* out_succ) {
  ta::DigitalSemantics sem(sys);
  core::StateStore<ta::DigitalState> store;
  core::Worklist work(core::SearchOrder::kBfs);
  std::vector<std::vector<std::int32_t>> succ;

  auto intern = [&](const ta::DigitalState& s) -> std::int32_t {
    auto [id, inserted] = store.intern(s);
    if (inserted) {
      succ.emplace_back();
      work.push(id);
    }
    return id;
  };
  ta::MoveList enabled;
  ta::DigitalState state;
  ta::DigitalState next_state;

  intern(sem.initial());
  bool ok = true;
  core::explore(
      store, work, core::SearchLimits{},
      [&](const core::Worklist::Entry& e) {
        // core::explore expands an entry right after visiting it, so the
        // expand callback below reads this copy.
        store.state_into(e.id, state);
        if (!visit(state)) {
          ok = false;
          return core::Visit::kStop;
        }
        return core::Visit::kContinue;
      },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        if (prune(state)) return 0;  // no expansion beyond pruned states
        auto action = strategy.action(state);
        std::vector<std::int32_t> next;
        // Environment may always act.
        sem.enabled_moves(state, enabled);
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          if (!move_controllable(sys, enabled[i])) {
            sem.apply(state, enabled[i], next_state);
            next.push_back(intern(next_state));
          }
        }
        if (action && action->kind == ActionKind::kMove) {
          sem.apply(state, action->move.participants, next_state);
          next.push_back(intern(next_state));
        } else {
          // Strategy waits (or state is outside the winning region): time may
          // pass if permitted.
          if (sem.can_delay(state)) {
            sem.delay_one(state, next_state);
            next.push_back(intern(next_state));
          }
        }
        const std::size_t taken = next.size();
        succ[static_cast<std::size_t>(e.id)] = std::move(next);
        return taken;
      });
  if (!ok) return false;
  if (out_states) {
    out_states->clear();
    out_states->reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
      out_states->push_back(store.state(static_cast<std::int32_t>(i)));
    }
  }
  if (out_succ) *out_succ = std::move(succ);
  return true;
}

}  // namespace

bool verify_safety_strategy(const ta::System& sys, const Strategy& strategy,
                            const GamePredicate& safe) {
  return closed_loop_explore(
      sys, strategy, [](const ta::DigitalState&) { return false; },
      [&safe](const ta::DigitalState& s) { return safe(s); }, nullptr, nullptr);
}

bool verify_reach_strategy(const ta::System& sys, const Strategy& strategy,
                           const GamePredicate& goal) {
  std::vector<ta::DigitalState> states;
  std::vector<std::vector<std::int32_t>> succ;
  // Prune at goal states: obligations are discharged there.
  bool ok = closed_loop_explore(
      sys, strategy, goal, [](const ta::DigitalState&) { return true; },
      &states, &succ);
  if (!ok) return false;
  succ.resize(states.size());
  // Every non-goal reachable state must make progress (have successors) and
  // the non-goal subgraph must be acyclic (so goal is reached eventually).
  const std::size_t n = states.size();
  std::vector<char> color(n, 0);
  std::vector<std::pair<std::int32_t, std::size_t>> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (goal(states[root]) || color[root] != 0) continue;
    stack.push_back({static_cast<std::int32_t>(root), 0});
    color[root] = 1;
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto& kids = succ[static_cast<std::size_t>(node)];
      if (kids.empty()) return false;  // dead end short of the goal
      if (child == kids.size()) {
        color[static_cast<std::size_t>(node)] = 2;
        stack.pop_back();
        continue;
      }
      std::int32_t k = kids[child++];
      if (goal(states[static_cast<std::size_t>(k)])) continue;
      char& c = color[static_cast<std::size_t>(k)];
      if (c == 1) return false;  // goal-free cycle
      if (c == 0) {
        c = 1;
        stack.push_back({k, 0});
      }
    }
  }
  return true;
}

}  // namespace quanta::game
