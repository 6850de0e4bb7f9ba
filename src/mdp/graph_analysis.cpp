#include "mdp/graph_analysis.h"

#include <stdexcept>

namespace quanta::mdp {

namespace {

void require_frozen(const Mdp& m) {
  if (!m.frozen()) throw std::logic_error("graph analysis requires frozen MDP");
}

std::size_t idx(std::int64_t i) { return static_cast<std::size_t>(i); }

/// Reverse edges of a frozen MDP in CSR form: for every state, the choices
/// with a branch into it (a choice appears once per such branch, so repeated
/// targets repeat it), plus the state owning each choice. Built once per
/// call in O(states + choices + branches).
struct Predecessors {
  std::vector<std::int64_t> offset;  ///< per state: first entry in `choice`
  std::vector<std::int64_t> choice;  ///< predecessor choices, grouped by target
  std::vector<std::int32_t> owner;   ///< per choice: its source state

  explicit Predecessors(const Mdp& m)
      : offset(idx(m.num_states()) + 1, 0),
        choice(idx(m.num_branches())),
        owner(idx(m.num_choices())) {
    for (std::int64_t c = 0; c < m.num_choices(); ++c) {
      for (const Branch& b : m.branches_of(c)) ++offset[idx(b.target) + 1];
    }
    for (std::size_t s = 1; s < offset.size(); ++s) offset[s] += offset[s - 1];
    std::vector<std::int64_t> fill(offset.begin(), offset.end() - 1);
    for (std::int32_t s = 0; s < m.num_states(); ++s) {
      for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
        owner[idx(c)] = s;
        for (const Branch& b : m.branches_of(c)) choice[idx(fill[idx(b.target)]++)] = c;
      }
    }
  }

  template <typename F>
  void for_each(std::int32_t target, F&& f) const {
    for (std::int64_t i = offset[idx(target)]; i < offset[idx(target) + 1]; ++i) {
      f(choice[idx(i)]);
    }
  }
};

/// Grows `in` backwards to its least fixpoint under "some choice has some
/// branch into the set", never adding a state of `barrier`. Every state is
/// pushed at most once and every reverse edge read once: O(branches).
void backward_reach(const Predecessors& pre, StateSet& in,
                    const StateSet* barrier) {
  std::vector<std::int32_t> work;
  for (std::size_t s = 0; s < in.size(); ++s) {
    if (in[s]) work.push_back(static_cast<std::int32_t>(s));
  }
  while (!work.empty()) {
    const std::int32_t t = work.back();
    work.pop_back();
    pre.for_each(t, [&](std::int64_t c) {
      const std::int32_t s = pre.owner[idx(c)];
      if (in[idx(s)] || (barrier != nullptr && (*barrier)[idx(s)])) return;
      in[idx(s)] = true;
      work.push_back(s);
    });
  }
}

/// Greatest fixpoint of "non-goal and some choice keeps all mass in the set"
/// — states with a strategy to surely avoid `goal` forever. Each state
/// counts its choices whose targets all lie in the set; removing a state
/// retires its predecessor choices once each, and a state whose count hits
/// zero leaves the set in turn: O(branches).
StateSet sure_avoid(const Mdp& m, const Predecessors& pre,
                    const StateSet& goal) {
  const std::size_t n = idx(m.num_states());
  StateSet in(n);
  for (std::size_t s = 0; s < n; ++s) in[s] = !goal[s];
  std::vector<bool> safe(idx(m.num_choices()));
  std::vector<std::int64_t> safe_count(n, 0);
  std::vector<std::int32_t> work;
  for (std::int32_t s = 0; s < m.num_states(); ++s) {
    if (!in[idx(s)]) continue;
    for (std::int64_t c = m.choice_begin(s); c < m.choice_end(s); ++c) {
      bool all_inside = true;
      for (const Branch& b : m.branches_of(c)) {
        if (!in[idx(b.target)]) {
          all_inside = false;
          break;
        }
      }
      safe[idx(c)] = all_inside;
      if (all_inside) ++safe_count[idx(s)];
    }
    if (safe_count[idx(s)] == 0) {
      in[idx(s)] = false;
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const std::int32_t t = work.back();
    work.pop_back();
    pre.for_each(t, [&](std::int64_t c) {
      if (!safe[idx(c)]) return;
      safe[idx(c)] = false;
      const std::int32_t s = pre.owner[idx(c)];
      if (--safe_count[idx(s)] == 0 && in[idx(s)]) {
        in[idx(s)] = false;
        work.push_back(s);
      }
    });
  }
  return in;
}

StateSet complement(StateSet s) {
  s.flip();
  return s;
}

}  // namespace

StateSet prob0_max(const Mdp& m, const StateSet& goal) {
  require_frozen(m);
  StateSet can_reach = goal;
  backward_reach(Predecessors(m), can_reach, nullptr);
  return complement(std::move(can_reach));
}

StateSet prob0_min(const Mdp& m, const StateSet& goal) {
  require_frozen(m);
  return sure_avoid(m, Predecessors(m), goal);
}

StateSet prob1_max(const Mdp& m, const StateSet& goal) {
  require_frozen(m);
  const Predecessors pre(m);
  const std::size_t n = idx(m.num_states());
  StateSet w(n, true);
  std::vector<bool> all_in_w(idx(m.num_choices()));
  std::vector<std::int32_t> work;
  for (;;) {
    for (std::int64_t c = 0; c < m.num_choices(); ++c) {
      bool inside = true;
      for (const Branch& b : m.branches_of(c)) {
        if (!w[idx(b.target)]) {
          inside = false;
          break;
        }
      }
      all_in_w[idx(c)] = inside;
    }
    // u := least fixpoint of states that can reach goal with one step while
    // keeping all probability mass inside w. A state joins when some choice
    // stays in w and has a branch into u, so it is found from that branch.
    StateSet u = goal;
    for (std::size_t s = 0; s < n; ++s) {
      if (u[s]) work.push_back(static_cast<std::int32_t>(s));
    }
    while (!work.empty()) {
      const std::int32_t t = work.back();
      work.pop_back();
      pre.for_each(t, [&](std::int64_t c) {
        const std::int32_t s = pre.owner[idx(c)];
        if (u[idx(s)] || !all_in_w[idx(c)]) return;
        u[idx(s)] = true;
        work.push_back(s);
      });
    }
    if (u == w) return w;
    w = std::move(u);
  }
}

StateSet prob1_min(const Mdp& m, const StateSet& goal) {
  require_frozen(m);
  // Pmin(F goal) < 1 iff the state can reach, through non-goal states, a
  // region with a strategy to avoid goal surely. Compute that region, grow
  // it backwards through non-goal states, and complement.
  const Predecessors pre(m);
  StateSet bad = sure_avoid(m, pre, goal);
  backward_reach(pre, bad, &goal);
  return complement(std::move(bad));
}

}  // namespace quanta::mdp
