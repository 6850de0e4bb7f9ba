// Markov decision processes with action rewards, stored in compressed
// sparse-row form so that digital-clocks translations of PTA (millions of
// states) stay affordable. This is the probabilistic-model-checking core
// behind the mcpta/PRISM column of the paper's Table I.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace quanta::mdp {

struct Branch {
  std::int32_t target = 0;
  double prob = 0.0;
};

/// Builder-then-frozen MDP. States are added implicitly by referencing them;
/// choices are appended per state in any order and frozen into CSR form.
class Mdp {
 public:
  /// Appends one nondeterministic choice for `state`, copying its branches.
  /// Branch probabilities must sum to 1 (within tolerance; checked in
  /// freeze()).
  void add_choice(std::int32_t state, std::span<const Branch> branches,
                  double reward = 0.0);
  void add_choice(std::int32_t state, std::initializer_list<Branch> branches,
                  double reward = 0.0) {
    add_choice(state, std::span<const Branch>(branches), reward);
  }

  void set_initial(std::int32_t s) { initial_ = s; }
  std::int32_t initial() const { return initial_; }

  /// Freezes into CSR form; must be called before queries. Validates that
  /// every state has at least one choice (deadlock states get an implicit
  /// self-loop with reward 0) and that distributions are normalised.
  void freeze();
  bool frozen() const { return frozen_; }

  std::int32_t num_states() const { return num_states_; }
  std::int64_t num_choices() const { return static_cast<std::int64_t>(choice_reward_.size()); }
  std::int64_t num_branches() const { return static_cast<std::int64_t>(branches_.size()); }

  /// Choice indices of a state: [choice_begin(s), choice_end(s)).
  std::int64_t choice_begin(std::int32_t s) const { return state_offset_[static_cast<std::size_t>(s)]; }
  std::int64_t choice_end(std::int32_t s) const { return state_offset_[static_cast<std::size_t>(s) + 1]; }

  std::span<const Branch> branches_of(std::int64_t choice) const {
    return {branches_.data() + choice_offset_[static_cast<std::size_t>(choice)],
            branches_.data() + choice_offset_[static_cast<std::size_t>(choice) + 1]};
  }
  double reward_of(std::int64_t choice) const {
    return choice_reward_[static_cast<std::size_t>(choice)];
  }

  /// Structural fingerprint of the frozen CSR form (states, choice layout,
  /// branch targets/probabilities, rewards, initial state) — the model half
  /// of a value-iteration checkpoint's identity (src/ckpt). Requires
  /// frozen().
  std::uint64_t fingerprint() const;

 private:
  /// A choice added before freeze(): its branches are
  /// pending_branches_[first, first + count).
  struct PendingChoice {
    std::int32_t state;
    double reward;
    std::size_t first;
    std::size_t count;
  };

  bool frozen_ = false;
  std::int32_t initial_ = 0;
  std::int32_t num_states_ = 0;
  std::vector<PendingChoice> pending_;
  std::vector<Branch> pending_branches_;

  // CSR data (valid after freeze()).
  std::vector<std::int64_t> state_offset_;   // per state: first choice index
  std::vector<std::int64_t> choice_offset_;  // per choice: first branch index
  std::vector<double> choice_reward_;
  std::vector<Branch> branches_;
};

}  // namespace quanta::mdp
