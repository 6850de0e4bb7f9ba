// Reference implementations of the qualitative MDP precomputations for
// differential tests: the plain definitions, swept over every state until
// nothing changes. Quadratic and slow, but obviously the fixpoints the
// definitions name; mdp::prob0_max & co. must return exactly these sets.
#pragma once

#include "mdp/graph_analysis.h"

namespace quanta::mdp::reference {

inline StateSet existential_reach(const Mdp& m, const StateSet& goal) {
  StateSet in = goal;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (in[static_cast<std::size_t>(s)]) continue;
      bool hit = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !hit; ++c) {
        for (const Branch& b : m.branches_of(c)) {
          if (in[static_cast<std::size_t>(b.target)]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        in[static_cast<std::size_t>(s)] = true;
        changed = true;
      }
    }
  }
  return in;
}

inline StateSet sure_avoid(const Mdp& m, const StateSet& goal) {
  StateSet in(static_cast<std::size_t>(m.num_states()), true);
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    if (goal[static_cast<std::size_t>(s)]) in[static_cast<std::size_t>(s)] = false;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (!in[static_cast<std::size_t>(s)]) continue;
      bool has_safe_choice = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        bool all_inside = true;
        for (const Branch& b : m.branches_of(c)) {
          if (!in[static_cast<std::size_t>(b.target)]) {
            all_inside = false;
            break;
          }
        }
        if (all_inside) {
          has_safe_choice = true;
          break;
        }
      }
      if (!has_safe_choice) {
        in[static_cast<std::size_t>(s)] = false;
        changed = true;
      }
    }
  }
  return in;
}

inline StateSet prob0_max(const Mdp& m, const StateSet& goal) {
  StateSet can_reach = existential_reach(m, goal);
  StateSet result(static_cast<std::size_t>(m.num_states()));
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    result[static_cast<std::size_t>(s)] = !can_reach[static_cast<std::size_t>(s)];
  }
  return result;
}

inline StateSet prob0_min(const Mdp& m, const StateSet& goal) {
  return sure_avoid(m, goal);
}

inline StateSet prob1_max(const Mdp& m, const StateSet& goal) {
  StateSet w(static_cast<std::size_t>(m.num_states()), true);
  for (;;) {
    StateSet u = goal;
    bool grew = true;
    while (grew) {
      grew = false;
      for (std::int32_t s = 0; s < m.num_states(); ++s) {
        if (u[static_cast<std::size_t>(s)]) continue;
        bool ok = false;
        for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !ok; ++c) {
          bool all_in_w = true;
          bool some_in_u = false;
          for (const Branch& b : m.branches_of(c)) {
            if (!w[static_cast<std::size_t>(b.target)]) all_in_w = false;
            if (u[static_cast<std::size_t>(b.target)]) some_in_u = true;
          }
          ok = all_in_w && some_in_u;
        }
        if (ok) {
          u[static_cast<std::size_t>(s)] = true;
          grew = true;
        }
      }
    }
    if (u == w) return w;
    w = std::move(u);
  }
}

inline StateSet prob1_min(const Mdp& m, const StateSet& goal) {
  StateSet bad = sure_avoid(m, goal);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      if (bad[static_cast<std::size_t>(s)] || goal[static_cast<std::size_t>(s)]) continue;
      bool hit = false;
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s) && !hit; ++c) {
        for (const Branch& b : m.branches_of(c)) {
          if (bad[static_cast<std::size_t>(b.target)]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        bad[static_cast<std::size_t>(s)] = true;
        changed = true;
      }
    }
  }
  StateSet result(static_cast<std::size_t>(m.num_states()));
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    result[static_cast<std::size_t>(s)] = !bad[static_cast<std::size_t>(s)];
  }
  return result;
}

}  // namespace quanta::mdp::reference
