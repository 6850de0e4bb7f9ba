#include "mdp/mdp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/checkpoint.h"
#include "common/error.h"

namespace quanta::mdp {

void Mdp::add_choice(std::int32_t state, std::span<const Branch> branches,
                     double reward) {
  if (frozen_) throw std::logic_error("Mdp::add_choice after freeze()");
  if (state < 0) {
    throw std::invalid_argument(quanta::context(
        "mdp", "Mdp::add_choice: state must be non-negative, got ", state));
  }
  if (branches.empty()) {
    throw std::invalid_argument("Mdp::add_choice: empty distribution");
  }
  num_states_ = std::max(num_states_, state + 1);
  for (const Branch& b : branches) {
    if (b.target < 0 || b.prob < 0.0) {
      throw std::invalid_argument(quanta::context(
          "mdp", "Mdp::add_choice: bad branch (target=", b.target,
          ", prob=", b.prob,
          "): target must be >= 0 and probability non-negative"));
    }
    num_states_ = std::max(num_states_, b.target + 1);
  }
  pending_.push_back(
      PendingChoice{state, reward, pending_branches_.size(), branches.size()});
  pending_branches_.insert(pending_branches_.end(), branches.begin(),
                           branches.end());
}

void Mdp::freeze() {
  if (frozen_) return;
  num_states_ = std::max(num_states_, initial_ + 1);

  // Count choices per state; give deadlock states an implicit self-loop.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_states_), 0);
  for (const auto& c : pending_) ++counts[static_cast<std::size_t>(c.state)];
  for (std::int32_t s = 0; s < num_states_; ++s) {
    if (counts[static_cast<std::size_t>(s)] == 0) {
      pending_.push_back(PendingChoice{s, 0.0, pending_branches_.size(), 1});
      pending_branches_.push_back(Branch{s, 1.0});
      counts[static_cast<std::size_t>(s)] = 1;
    }
  }

  state_offset_.assign(static_cast<std::size_t>(num_states_) + 1, 0);
  for (std::int32_t s = 0; s < num_states_; ++s) {
    state_offset_[static_cast<std::size_t>(s) + 1] =
        state_offset_[static_cast<std::size_t>(s)] + counts[static_cast<std::size_t>(s)];
  }

  const std::int64_t n_choices = static_cast<std::int64_t>(pending_.size());
  choice_reward_.assign(static_cast<std::size_t>(n_choices), 0.0);
  std::vector<std::int64_t> fill(state_offset_.begin(), state_offset_.end() - 1);
  std::vector<const PendingChoice*> slot(static_cast<std::size_t>(n_choices), nullptr);
  for (const auto& c : pending_) {
    slot[static_cast<std::size_t>(fill[static_cast<std::size_t>(c.state)]++)] = &c;
  }

  choice_offset_.assign(static_cast<std::size_t>(n_choices) + 1, 0);
  std::int64_t total_branches = 0;
  for (std::int64_t i = 0; i < n_choices; ++i) {
    total_branches += static_cast<std::int64_t>(slot[static_cast<std::size_t>(i)]->count);
    choice_offset_[static_cast<std::size_t>(i) + 1] = total_branches;
  }
  branches_.reserve(static_cast<std::size_t>(total_branches));
  for (std::int64_t i = 0; i < n_choices; ++i) {
    const PendingChoice& c = *slot[static_cast<std::size_t>(i)];
    choice_reward_[static_cast<std::size_t>(i)] = c.reward;
    double sum = 0.0;
    for (std::size_t b = c.first; b < c.first + c.count; ++b) {
      sum += pending_branches_[b].prob;
      branches_.push_back(pending_branches_[b]);
    }
    if (std::fabs(sum - 1.0) > 1e-9) {
      throw std::invalid_argument("Mdp::freeze: distribution sums to " +
                                  std::to_string(sum));
    }
  }
  pending_.clear();
  pending_.shrink_to_fit();
  pending_branches_.clear();
  pending_branches_.shrink_to_fit();
  frozen_ = true;
}

std::uint64_t Mdp::fingerprint() const {
  if (!frozen_) {
    throw std::logic_error(quanta::context(
        "mdp.fingerprint", "fingerprint requires a frozen MDP"));
  }
  ckpt::Fingerprint fp;
  fp.mix(0x4D445000u)
      .mix_i64(num_states_)
      .mix_i64(initial_);
  for (std::int64_t off : state_offset_) fp.mix_i64(off);
  for (std::int64_t off : choice_offset_) fp.mix_i64(off);
  for (double r : choice_reward_) fp.mix_f64(r);
  for (const Branch& b : branches_) {
    fp.mix_i64(b.target).mix_f64(b.prob);
  }
  return fp.digest();
}

}  // namespace quanta::mdp
