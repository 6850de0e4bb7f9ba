// Qualitative (graph-based) precomputations for MDP model checking, in the
// style of PRISM's precomputation engines: the state sets where the
// max/min reachability probability is exactly 0 or 1. These make value
// iteration exact at the boundaries and faster in between.
//
// Each call builds a reverse-edge index of the MDP (predecessor choices per
// state, in CSR form) and runs backward worklist algorithms over it, so
// prob0_max, prob0_min and prob1_min take O(states + choices + branches)
// time, and prob1_max takes that per round of its outer fixpoint (at most
// one round per state removed, in practice a handful). The returned sets are
// the unique fixpoints the definitions name, independent of visit order.
#pragma once

#include <vector>

#include "mdp/mdp.h"

namespace quanta::mdp {

using StateSet = std::vector<bool>;  ///< indexed by state id

/// States with Pmax(F goal) == 0: goal is graph-unreachable.
StateSet prob0_max(const Mdp& m, const StateSet& goal);

/// States with Pmin(F goal) == 0: some scheduler keeps all probability mass
/// away from goal forever.
StateSet prob0_min(const Mdp& m, const StateSet& goal);

/// States with Pmax(F goal) == 1 (de Alfaro's nested fixpoint).
StateSet prob1_max(const Mdp& m, const StateSet& goal);

/// States with Pmin(F goal) == 1: every scheduler reaches goal a.s.
StateSet prob1_min(const Mdp& m, const StateSet& goal);

}  // namespace quanta::mdp
