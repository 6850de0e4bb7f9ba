#include "game/tiga.h"

#include "ckpt/snapshot_core.h"
#include "ckpt/snapshot_ta.h"
#include "common/fault.h"
#include "core/explore.h"

namespace quanta::game {

namespace {

bool move_controllable(const ta::System& sys, const ta::Move& m) {
  for (const auto& [p, e] : m.participants) {
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
                     ckpt::Options checkpoint,
                     core::ExplorationObserver* observer)
    : sem_(sys),
      limits_(std::move(limits)),
      checkpoint_(std::move(checkpoint)),
      observer_(observer) {
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

bool TimedGame::save_snapshot(std::uint64_t explored, std::uint64_t transitions,
                              const core::Worklist::Entry* pending,
                              std::uint32_t objective,
                              const FixpointState* fix) {
  if (!chain_.has_value()) return false;
  std::vector<core::Worklist::Entry> cur;
  {
    const std::vector<core::Worklist::Entry> body = work_.snapshot();
    cur.reserve(body.size() + 1);
    if (pending != nullptr) cur.push_back(*pending);  // BFS pops front first
    cur.insert(cur.end(), body.begin(), body.end());
  }

  auto write_nodes = [this](ckpt::io::Writer& w, std::size_t from) {
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
  };
  auto write_fixpoint = [fix, objective](ckpt::io::Writer& w) {
    w.u32(objective);
    w.u64(fix->sweeps);
    w.u64(fix->win.size());
    for (char c : fix->win) w.u8(static_cast<std::uint8_t>(c));
    w.u64(fix->act.size());
    for (const StrategyAction& a : fix->act) {
      w.u8(a.kind == ActionKind::kMove ? 1 : 0);
      ckpt::write_move(w, a.move);
    }
  };

  bool ok;
  if (chain_->want_base()) {
    ckpt::Snapshot snap;
    {
      ckpt::io::Writer w;
      ckpt::write_store(w, store_, ckpt::write_digital_state);
      snap.add_section(ckpt::kSecStore, std::move(w));
    }
    {
      ckpt::io::Writer w;
      ckpt::write_worklist(w, work_, pending, nullptr);
      snap.add_section(ckpt::kSecWorklist, std::move(w));
    }
    {
      ckpt::io::Writer w;
      ckpt::write_search_stats(w, explored, transitions);
      snap.add_section(ckpt::kSecSearchStats, std::move(w));
    }
    {
      ckpt::io::Writer w;
      write_nodes(w, 0);
      snap.add_section(ckpt::kSecEnginePayload, std::move(w));
    }
    if (fix != nullptr) {
      ckpt::io::Writer w;
      write_fixpoint(w);
      snap.add_section(kSecGameFixpoint, std::move(w));
    }
    ok = chain_->save_base(snap);
  } else {
    std::vector<ckpt::Section> secs;
    {
      ckpt::io::Writer w;
      ckpt::write_store_delta(w, store_, saved_states_, /*base_journal=*/0,
                              ckpt::write_digital_state);
      secs.push_back(ckpt::Section{ckpt::kSecStoreDelta, w.take()});
    }
    {
      ckpt::io::Writer w;
      ckpt::write_worklist_delta(w, prev_entries_, cur);
      secs.push_back(ckpt::Section{ckpt::kSecWorklistDelta, w.take()});
    }
    {
      ckpt::io::Writer w;
      ckpt::write_search_stats(w, explored, transitions);
      secs.push_back(ckpt::Section{ckpt::kSecSearchStats, w.take()});
    }
    {
      ckpt::io::Writer w;
      write_nodes(w, saved_expanded_);
      secs.push_back(ckpt::Section{ckpt::kSecEnginePayload, w.take()});
    }
    if (fix != nullptr) {
      ckpt::io::Writer w;
      write_fixpoint(w);
      secs.push_back(ckpt::Section{kSecGameFixpoint, w.take()});
    }
    ok = chain_->save_delta_link(secs);
  }
  if (ok) {
    saved_states_ = store_.size();
    saved_expanded_ = expanded_;
    prev_entries_ = std::move(cur);
  }
  return ok;
}

bool TimedGame::restore_from(const ckpt::Chain& chain, std::uint32_t objective,
                             FixpointState* fix) {
  const ckpt::Section* sec_store = chain.base.find(ckpt::kSecStore);
  const ckpt::Section* sec_work = chain.base.find(ckpt::kSecWorklist);
  const ckpt::Section* sec_stats = chain.base.find(ckpt::kSecSearchStats);
  const ckpt::Section* sec_payload = chain.base.find(ckpt::kSecEnginePayload);
  if (sec_store == nullptr || sec_work == nullptr || sec_stats == nullptr ||
      sec_payload == nullptr) {
    return false;
  }
  std::vector<ta::DigitalState> states;
  std::vector<std::uint8_t> covered;
  {
    ckpt::io::Reader r(sec_store->payload);
    if (!ckpt::read_store_vectors<ta::DigitalState>(
            r, store_.options().inclusion, store_.options().tombstone_covered,
            ckpt::read_digital_state, &states, &covered)) {
      return false;
    }
  }
  std::vector<core::Worklist::Entry> entries;
  {
    ckpt::io::Reader r(sec_work->payload);
    if (!ckpt::read_worklist_entries(r, core::SearchOrder::kBfs, &entries)) {
      return false;
    }
  }
  std::uint64_t explored = 0;
  std::uint64_t transitions = 0;
  {
    ckpt::io::Reader r(sec_stats->payload);
    if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
  }
  std::vector<Node> nodes(states.size());
  std::size_t expanded = 0;

  auto read_nodes = [&nodes, &expanded,
                     &states](const std::vector<std::uint8_t>& payload) {
    ckpt::io::Reader r(payload);
    const std::uint64_t n = r.u64();
    const std::uint64_t from = r.u64();
    const std::uint64_t count = r.u64();
    if (!r.ok() || n != states.size() || from != expanded ||
        from + count > n || !r.fits(count, 12)) {
      return false;
    }
    const auto valid_id = [&](std::int32_t id) {
      return id >= 0 && static_cast<std::uint64_t>(id) < n;
    };
    for (std::uint64_t i = from; i < from + count; ++i) {
      Node& node = nodes[static_cast<std::size_t>(i)];
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
    expanded = static_cast<std::size_t>(from + count);
    return r.ok();
  };
  auto read_fixpoint = [fix, objective,
                        &states](const std::vector<std::uint8_t>& payload) {
    ckpt::io::Reader r(payload);
    const std::uint32_t obj = r.u32();
    const std::uint64_t sweeps = r.u64();
    const std::uint64_t n = r.u64();
    if (!r.ok() || obj != objective || n != states.size() || !r.fits(n, 1)) {
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
    fix->restored = true;
    fix->sweeps = sweeps;
    fix->win = std::move(win);
    fix->act = std::move(act);
    return true;
  };

  if (!read_nodes(sec_payload->payload)) return false;
  if (const ckpt::Section* s = chain.base.find(kSecGameFixpoint)) {
    if (!read_fixpoint(s->payload)) return false;
  }
  std::uint64_t journal_len = 0;
  for (std::uint8_t c : covered) journal_len += c != 0 ? 1 : 0;
  for (const ckpt::Delta& d : chain.deltas) {
    const ckpt::Section* d_store = d.find(ckpt::kSecStoreDelta);
    const ckpt::Section* d_work = d.find(ckpt::kSecWorklistDelta);
    const ckpt::Section* d_stats = d.find(ckpt::kSecSearchStats);
    const ckpt::Section* d_payload = d.find(ckpt::kSecEnginePayload);
    if (d_store == nullptr || d_work == nullptr || d_stats == nullptr ||
        d_payload == nullptr) {
      return false;
    }
    {
      ckpt::io::Reader r(d_store->payload);
      if (!ckpt::apply_store_delta<ta::DigitalState>(
              r, ckpt::read_digital_state, &states, &covered, &journal_len)) {
        return false;
      }
    }
    nodes.resize(states.size());
    {
      ckpt::io::Reader r(d_work->payload);
      if (!ckpt::apply_worklist_delta(r, &entries)) return false;
    }
    {
      ckpt::io::Reader r(d_stats->payload);
      if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
    }
    if (!read_nodes(d_payload->payload)) return false;
    if (const ckpt::Section* s = d.find(kSecGameFixpoint)) {
      if (!read_fixpoint(s->payload)) return false;
    }
  }

  prev_entries_ = entries;
  store_ = core::StateStore<ta::DigitalState>::restore(
      store_.options(), std::move(states), std::move(covered));
  nodes_ = std::move(nodes);
  expanded_ = expanded;
  work_.restore(std::move(entries));
  baseline_explored_ = explored;
  baseline_transitions_ = transitions;
  saved_states_ = store_.size();
  saved_expanded_ = expanded_;
  return true;
}

void TimedGame::build_graph(bool resumed, std::uint32_t objective,
                            ckpt::ResumeInfo* resume) {
  if (built_) return;

  auto intern = [&](ta::DigitalState s) -> std::int32_t {
    auto [id, inserted] = store_.intern(std::move(s));
    if (inserted) {
      nodes_.emplace_back();
      work_.push(id);
      if (observer_ != nullptr) observer_->on_state_stored(id, store_.size());
    }
    return id;
  };

  if (!resumed) intern(sem_.initial());
  core::CheckpointHook hook;
  const core::CheckpointHook* hook_ptr = nullptr;
  const std::uint64_t interval = checkpoint_.effective_interval();
  if (chain_.has_value() && (checkpoint_.save_on_stop || interval != 0)) {
    hook.interval = interval;
    hook.sink = [this, resume, objective](const core::SearchStats& s,
                                          const core::Worklist::Entry& pending) {
      if (s.stop != common::StopReason::kCompleted &&
          !checkpoint_.save_on_stop) {
        return;
      }
      const bool ok =
          save_snapshot(baseline_explored_ + s.states_explored - 1,
                        baseline_transitions_ + s.transitions, &pending,
                        objective, nullptr);
      if (resume != nullptr && ok) resume->saved = true;
    };
    hook_ptr = &hook;
  }
  build_stats_ = core::explore(
      store_, work_, limits_,
      [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        const ta::DigitalState state = store_.state(e.id);
        Node node;
        std::size_t taken = 0;
        for (ta::Move& m : sem_.enabled_moves(state)) {
          ++taken;
          std::int32_t to = intern(sem_.apply(state, m));
          if (move_controllable(sem_.system(), m)) {
            node.ctrl.emplace_back(to, std::move(m));
          } else {
            node.unctrl.push_back(to);
          }
        }
        if (sem_.can_delay(state)) {
          node.tick = intern(sem_.delay_one(state));
          ++taken;
        }
        nodes_[static_cast<std::size_t>(e.id)] = std::move(node);
        ++expanded_;
        return taken;
      },
      observer_, hook_ptr);
  build_stats_.states_explored += static_cast<std::size_t>(baseline_explored_);
  build_stats_.transitions += static_cast<std::size_t>(baseline_transitions_);
  built_ = true;
}

bool TimedGame::prepare(std::uint32_t objective, const GamePredicate& pred,
                        GameResult* result, FixpointState* fix) {
  chain_.reset();
  bool resumed = false;
  if (checkpoint_.enabled()) {
    const std::uint64_t fp = solve_fingerprint(objective, pred);
    result->resume.path = checkpoint_.path;
    chain_.emplace(checkpoint_.path, ckpt::Provider::kGame, fp,
                   checkpoint_.max_deltas);
    saved_states_ = 0;
    saved_expanded_ = 0;
    prev_entries_.clear();
    // The graph of an earlier solve on this instance is already in memory
    // and objective-independent — never replace it with a disk image.
    if (checkpoint_.resume && !built_) {
      ckpt::Chain chain;
      result->resume.load = ckpt::load_chain(checkpoint_.path, fp,
                                             ckpt::Provider::kGame, &chain);
      if (result->resume.load == ckpt::LoadStatus::kOk) {
        resumed = restore_from(chain, objective, fix);
        if (!resumed) result->resume.load = ckpt::LoadStatus::kCorrupt;
      }
      result->resume.resumed = resumed;
    }
  }
  build_graph(resumed, objective, &result->resume);
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
  if (fix->restored && fix->win.size() != nodes_.size()) {
    *fix = FixpointState{};
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
  FixpointState fix;
  if (!prepare(kObjReach, goal, &result, &fix)) return result;
  const std::size_t n = nodes_.size();
  if (!fix.restored) {
    fix.win.assign(n, 0);
    fix.act.assign(n, StrategyAction{});
    for (std::size_t i = 0; i < n; ++i) {
      if (goal(store_.state(static_cast<std::int32_t>(i)))) fix.win[i] = 1;
    }
  }
  std::vector<char>& win = fix.win;
  std::vector<StrategyAction>& act = fix.act;
  const std::uint64_t interval = checkpoint_.effective_interval();
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
      if (chain_.has_value() && checkpoint_.save_on_stop &&
          save_snapshot(build_stats_.states_explored, build_stats_.transitions,
                        nullptr, kObjReach, &fix)) {
        result.resume.saved = true;
      }
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
    ++fix.sweeps;
    if (chain_.has_value() && interval != 0 &&
        save_snapshot(build_stats_.states_explored, build_stats_.transitions,
                      nullptr, kObjReach, &fix)) {
      result.resume.saved = true;
    }
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
  FixpointState fix;
  if (!prepare(kObjSafety, safe, &result, &fix)) return result;
  const std::size_t n = nodes_.size();
  if (!fix.restored) {
    fix.win.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (safe(store_.state(static_cast<std::int32_t>(i)))) fix.win[i] = 1;
    }
  }
  std::vector<char>& win = fix.win;
  const std::uint64_t interval = checkpoint_.effective_interval();
  // Greatest fixpoint: prune states the controller cannot keep safe. Same
  // sweep-boundary checkpoint discipline as the reachability attractor
  // (the safety strategy is extracted after convergence, so no act array).
  bool changed = true;
  while (changed) {
    common::FaultInjector::site("game.tiga.sweep");
    const common::StopReason r = limits_.budget.poll();
    if (r != common::StopReason::kCompleted) {
      if (chain_.has_value() && checkpoint_.save_on_stop &&
          save_snapshot(build_stats_.states_explored, build_stats_.transitions,
                        nullptr, kObjSafety, &fix)) {
        result.resume.saved = true;
      }
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
    ++fix.sweeps;
    if (chain_.has_value() && interval != 0 &&
        save_snapshot(build_stats_.states_explored, build_stats_.transitions,
                      nullptr, kObjSafety, &fix)) {
      result.resume.saved = true;
    }
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

  auto intern = [&](ta::DigitalState s) -> std::int32_t {
    auto [id, inserted] = store.intern(std::move(s));
    if (inserted) {
      succ.emplace_back();
      work.push(id);
    }
    return id;
  };

  intern(sem.initial());
  bool ok = true;
  core::explore(
      store, work, core::SearchLimits{},
      [&](const core::Worklist::Entry& e) {
        if (!visit(store.state(e.id))) {
          ok = false;
          return core::Visit::kStop;
        }
        return core::Visit::kContinue;
      },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        const ta::DigitalState state = store.state(e.id);
        if (prune(state)) return 0;  // no expansion beyond pruned states
        auto action = strategy.action(state);
        std::vector<std::int32_t> next;
        // Environment may always act.
        for (ta::Move& m : sem.enabled_moves(state)) {
          if (!move_controllable(sys, m)) {
            next.push_back(intern(sem.apply(state, m)));
          }
        }
        if (action && action->kind == ActionKind::kMove) {
          next.push_back(intern(sem.apply(state, action->move)));
        } else {
          // Strategy waits (or state is outside the winning region): time may
          // pass if permitted.
          if (sem.can_delay(state)) next.push_back(intern(sem.delay_one(state)));
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
