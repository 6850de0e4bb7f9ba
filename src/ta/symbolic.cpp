#include "ta/symbolic.h"

#include <sstream>
#include <stdexcept>

#include "common/hash.h"

namespace quanta::ta {

std::size_t SymState::discrete_hash() const {
  std::size_t seed = common::hash_vector(locs);
  common::hash_combine(seed, common::hash_vector(vars));
  return seed;
}

std::string Move::describe(const System& sys) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    auto [p, e] = participants[i];
    const Process& proc = sys.process(p);
    const Edge& edge = proc.edges.at(static_cast<std::size_t>(e));
    if (i > 0) os << " + ";
    os << proc.name << ":" << proc.locations[edge.source].name << "->"
       << proc.locations[edge.target].name;
    if (!edge.label.empty()) os << " [" << edge.label << "]";
  }
  return os.str();
}

SymbolicSemantics::SymbolicSemantics(const System& sys, Options opts)
    : sys_(&sys), opts_(opts), max_k_(sys.max_constants()) {
  sys.validate();
  for (int c = 0; c < sys.channel_count(); ++c) {
    if (sys.channel(c).urgent) has_urgent_channel_ = true;
  }
  edges_from_.resize(static_cast<std::size_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    const Process& proc = sys.process(p);
    edges_from_[p].resize(proc.locations.size());
    for (std::size_t e = 0; e < proc.edges.size(); ++e) {
      edges_from_[p][static_cast<std::size_t>(proc.edges[e].source)].push_back(
          static_cast<int>(e));
    }
  }
}

bool SymbolicSemantics::constrain_invariant(const std::vector<int>& locs,
                                            dbm::Dbm& z) const {
  for (int p = 0; p < sys_->process_count(); ++p) {
    const Location& loc = sys_->process(p).locations.at(locs[p]);
    for (const auto& c : loc.invariant) {
      if (!z.constrain(c.i, c.j, c.bound)) return false;
    }
  }
  return true;
}

bool SymbolicSemantics::constrain_guard(const Edge& e, dbm::Dbm& z) {
  for (const auto& c : e.guard) {
    if (!z.constrain(c.i, c.j, c.bound)) return false;
  }
  return true;
}

bool SymbolicSemantics::any_committed(const std::vector<int>& locs) const {
  for (int p = 0; p < sys_->process_count(); ++p) {
    if (sys_->process(p).locations.at(locs[p]).committed) return true;
  }
  return false;
}

bool SymbolicSemantics::any_urgent(const std::vector<int>& locs) const {
  for (int p = 0; p < sys_->process_count(); ++p) {
    if (sys_->process(p).locations.at(locs[p]).urgent) return true;
  }
  return false;
}

bool SymbolicSemantics::urgent_sync_enabled(const std::vector<int>& locs,
                                            const Valuation& vars) const {
  if (!has_urgent_channel_) return false;
  // Reused per thread: delay_forbidden asks this on every simulation step
  // and every applied move of a model with urgent channels.
  thread_local MoveList moves;
  enabled_moves(locs, vars, moves);
  // UPPAAL restriction (validated in models): edges on urgent channels carry
  // no clock guards, so enabledness is decidable at the data level.
  for (std::size_t i = 0; i < moves.size(); ++i) {
    auto [p, e] = moves[i].front();
    const Edge& edge = sys_->process(p).edges.at(static_cast<std::size_t>(e));
    if (edge.sync == SyncKind::kSend || edge.sync == SyncKind::kReceive) {
      int ch = edge.channel_id(vars);
      if (ch >= 0 && sys_->channel(ch).urgent) return true;
    }
  }
  return false;
}

bool SymbolicSemantics::delay_forbidden(const std::vector<int>& locs,
                                        const Valuation& vars) const {
  return any_committed(locs) || any_urgent(locs) ||
         urgent_sync_enabled(locs, vars);
}

SymState SymbolicSemantics::initial() const {
  SymState s;
  s.locs.resize(static_cast<std::size_t>(sys_->process_count()));
  for (int p = 0; p < sys_->process_count(); ++p) {
    s.locs[p] = sys_->process(p).initial;
  }
  s.vars = sys_->vars().initial();
  s.zone = dbm::Dbm::zero(sys_->dim());
  if (!constrain_invariant(s.locs, s.zone)) {
    throw std::logic_error("initial state violates invariants");
  }
  if (!delay_forbidden(s.locs, s.vars)) {
    s.zone.up();
    constrain_invariant(s.locs, s.zone);
  }
  if (opts_.extrapolate) s.zone.extrapolate_max_bounds(max_k_);
  return s;
}

void SymbolicSemantics::enabled_moves(const std::vector<int>& locs,
                                      const Valuation& vars,
                                      MoveList& moves) const {
  moves.clear();
  const bool committed_mode = any_committed(locs);

  auto data_ok = [&vars](const Edge& e) {
    return !e.data_guard || e.data_guard(vars);
  };
  auto proc_committed = [this, &locs](int p) {
    return sys_->process(p).locations.at(locs[p]).committed;
  };

  // Internal edges.
  for (int p = 0; p < sys_->process_count(); ++p) {
    const Process& proc = sys_->process(p);
    for (int e : edges_from_[p][static_cast<std::size_t>(locs[p])]) {
      const Edge& edge = proc.edges[static_cast<std::size_t>(e)];
      if (edge.sync != SyncKind::kNone) continue;
      if (!data_ok(edge)) continue;
      if (committed_mode && !proc_committed(p)) continue;
      moves.add(p, e);
      moves.close();
    }
  }

  // Synchronisations: enumerate senders, then match receivers.
  for (int p = 0; p < sys_->process_count(); ++p) {
    const Process& proc = sys_->process(p);
    for (int e : edges_from_[p][static_cast<std::size_t>(locs[p])]) {
      const Edge& edge = proc.edges[static_cast<std::size_t>(e)];
      if (edge.sync != SyncKind::kSend) continue;
      if (!data_ok(edge)) continue;
      int ch = edge.channel_id(vars);
      if (ch < 0 || ch >= sys_->channel_count()) continue;
      const bool broadcast = sys_->channel(ch).broadcast;

      if (!broadcast) {
        for (int q = 0; q < sys_->process_count(); ++q) {
          if (q == p) continue;
          const Process& qproc = sys_->process(q);
          for (int f : edges_from_[q][static_cast<std::size_t>(locs[q])]) {
            const Edge& redge = qproc.edges[static_cast<std::size_t>(f)];
            if (redge.sync != SyncKind::kReceive) continue;
            if (redge.channel_id(vars) != ch) continue;
            if (!data_ok(redge)) continue;
            if (committed_mode && !proc_committed(p) && !proc_committed(q)) continue;
            moves.add(p, e);
            moves.add(q, f);
            moves.close();
          }
        }
      } else {
        // Broadcast: every process with an enabled receive edge participates.
        // Receivers on broadcast channels must not carry clock guards (so
        // participation is decidable at the data level); at most one enabled
        // receive edge per process is supported.
        moves.add(p, e);
        bool receiver_committed = false;
        for (int q = 0; q < sys_->process_count(); ++q) {
          if (q == p) continue;
          const Process& qproc = sys_->process(q);
          int chosen = -1;
          for (int f : edges_from_[q][static_cast<std::size_t>(locs[q])]) {
            const Edge& redge = qproc.edges[static_cast<std::size_t>(f)];
            if (redge.sync != SyncKind::kReceive) continue;
            if (redge.channel_id(vars) != ch) continue;
            if (!data_ok(redge)) continue;
            if (!redge.guard.empty()) {
              throw std::logic_error(
                  "broadcast receiver edges must not have clock guards");
            }
            chosen = f;
            break;
          }
          if (chosen >= 0) {
            moves.add(q, chosen);
            if (proc_committed(q)) receiver_committed = true;
          }
        }
        if (committed_mode && !proc_committed(p) && !receiver_committed) {
          moves.discard();
          continue;
        }
        moves.close();
      }
    }
  }
}

void SymbolicSemantics::apply_edge_effect(const Edge& e, Valuation& vars,
                                          dbm::Dbm& z) const {
  if (e.probabilistic()) {
    throw std::logic_error(
        "SymbolicSemantics: model has probabilistic branches; analyse the "
        "mctau overapproximation (sta::strip_probabilities) instead");
  }
  for (const auto& [clock, value] : e.resets) z.reset(clock, value);
  if (e.update) {
    e.update(vars);
    sys_->vars().check_bounds(vars);
  }
}

bool SymbolicSemantics::apply_move(const SymState& s, MoveView m,
                                   SymState& next) const {
  next = s;
  // Guards are evaluated against the pre-state zone.
  for (const auto& [p, e] : m) {
    const Edge& edge = sys_->process(p).edges.at(static_cast<std::size_t>(e));
    if (!constrain_guard(edge, next.zone)) return false;
  }
  // Effects: sender/internal first, then receivers, in participant order.
  for (const auto& [p, e] : m) {
    const Edge& edge = sys_->process(p).edges.at(static_cast<std::size_t>(e));
    next.locs[p] = edge.target;
    apply_edge_effect(edge, next.vars, next.zone);
  }
  if (!constrain_invariant(next.locs, next.zone)) return false;
  if (!delay_forbidden(next.locs, next.vars)) {
    next.zone.up();
    if (!constrain_invariant(next.locs, next.zone)) return false;
  }
  if (opts_.extrapolate) next.zone.extrapolate_max_bounds(max_k_);
  return !next.zone.is_empty();
}

std::vector<SymTransition> SymbolicSemantics::successors(const SymState& s) const {
  std::vector<SymTransition> result;
  MoveList moves;
  enabled_moves(s.locs, s.vars, moves);
  SymState next;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (apply_move(s, moves[i], next)) {
      result.push_back(SymTransition{Move(moves[i]), next});
    }
  }
  return result;
}

std::string SymbolicSemantics::state_to_string(const SymState& s) const {
  std::ostringstream os;
  os << "(";
  for (int p = 0; p < sys_->process_count(); ++p) {
    if (p > 0) os << ", ";
    os << sys_->process(p).name << "."
       << sys_->process(p).locations.at(s.locs[p]).name;
  }
  os << ")";
  if (!s.vars.empty()) {
    os << " {";
    for (std::size_t i = 0; i < s.vars.size(); ++i) {
      if (i > 0) os << ", ";
      os << sys_->vars().decl(static_cast<int>(i)).name << "=" << s.vars[i];
    }
    os << "}";
  }
  os << " " << s.zone.to_string();
  return os.str();
}

}  // namespace quanta::ta
