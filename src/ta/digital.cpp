#include "ta/digital.h"

#include <stdexcept>

#include "common/hash.h"

namespace quanta::ta {

std::size_t DigitalState::hash() const {
  std::size_t seed = common::hash_vector(locs);
  common::hash_combine(seed, common::hash_vector(vars));
  common::hash_combine(seed, common::hash_vector(clocks));
  return seed;
}

DigitalSemantics::DigitalSemantics(const System& sys) : sym_(sys) {
  auto check_diag_free = [](const std::vector<ClockConstraint>& ccs) {
    for (const auto& c : ccs) {
      if (c.i != 0 && c.j != 0) {
        throw std::invalid_argument(
            "DigitalSemantics requires diagonal-free models");
      }
    }
  };
  for (int p = 0; p < sys.process_count(); ++p) {
    for (const auto& l : sys.process(p).locations) check_diag_free(l.invariant);
    for (const auto& e : sys.process(p).edges) check_diag_free(e.guard);
  }
  caps_ = sys.max_constants();
  for (auto& c : caps_) c += 1;
  caps_[0] = 0;
}

DigitalState DigitalSemantics::initial() const {
  const System& sys = system();
  DigitalState s;
  s.locs.resize(static_cast<std::size_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    s.locs[p] = sys.process(p).initial;
  }
  s.vars = sys.vars().initial();
  s.clocks.assign(static_cast<std::size_t>(sys.dim()), 0);
  return s;
}

bool DigitalSemantics::constraint_ok(const ClockConstraint& c,
                                     const DigitalState& s) const {
  if (c.bound >= dbm::kInf) return true;
  std::int64_t diff = static_cast<std::int64_t>(s.clocks[c.i]) - s.clocks[c.j];
  std::int64_t m = dbm::bound_value(c.bound);
  return dbm::bound_is_strict(c.bound) ? diff < m : diff <= m;
}

bool DigitalSemantics::invariant_ok(const DigitalState& s) const {
  for (int p = 0; p < system().process_count(); ++p) {
    const Location& loc = system().process(p).locations.at(s.locs[p]);
    for (const auto& c : loc.invariant) {
      if (!constraint_ok(c, s)) return false;
    }
  }
  return true;
}

bool DigitalSemantics::can_delay(const DigitalState& s) const {
  if (sym_.delay_forbidden(s.locs, s.vars)) return false;
  DigitalState next = delay_one(s);
  return invariant_ok(next);
}

DigitalState DigitalSemantics::delay_one(const DigitalState& s) const {
  DigitalState next = s;
  for (std::size_t i = 1; i < next.clocks.size(); ++i) {
    if (next.clocks[i] < caps_[i]) next.clocks[i] += 1;
  }
  return next;
}

void DigitalSemantics::enabled_moves(const DigitalState& s,
                                     MoveList& out) const {
  sym_.enabled_moves(s.locs, s.vars, out);
  out.retain([this, &s](MoveView m) {
    for (const auto& [p, e] : m) {
      const Edge& edge =
          system().process(p).edges.at(static_cast<std::size_t>(e));
      for (const auto& c : edge.guard) {
        if (!constraint_ok(c, s)) return false;
      }
    }
    return true;
  });
}

void DigitalSemantics::apply(const DigitalState& s, MoveView m,
                             DigitalState& next,
                             std::span<const int> branch_choice) const {
  const System& sys = system();
  next = s;
  for (std::size_t k = 0; k < m.size(); ++k) {
    const auto& [p, e] = m[k];
    const Edge& edge = sys.process(p).edges.at(static_cast<std::size_t>(e));
    int branch = k < branch_choice.size() ? branch_choice[k] : -1;
    EdgeEffect eff = resolve_effect(edge, branch);
    next.locs[p] = eff.target;
    for (const auto& [clock, value] : *eff.resets) {
      next.clocks[static_cast<std::size_t>(clock)] = value;
    }
    if (*eff.update) {
      (*eff.update)(next.vars);
      sys.vars().check_bounds(next.vars);
    }
  }
}

}  // namespace quanta::ta
