#include "pta/digital_clocks.h"

#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/traits.h"

namespace quanta::pta {

mdp::StateSet DigitalMdp::states_where(
    const std::function<bool(const ta::DigitalState&)>& pred) const {
  mdp::StateSet set(states.size(), false);
  for (std::size_t i = 0; i < states.size(); ++i) set[i] = pred(states[i]);
  return set;
}

namespace {

/// Enumerates the product distribution over the participants' branch sets.
/// Calls `emit(branch_choice, probability)` once per combination.
void enumerate_branches(
    const ta::System& sys, ta::MoveView move,
    const std::function<void(const std::vector<int>&, double)>& emit) {
  const std::size_t k = move.size();
  std::vector<const ta::Edge*> edges(k);
  std::vector<double> weight_sum(k, 1.0);
  std::vector<int> counts(k, 1);
  for (std::size_t i = 0; i < k; ++i) {
    const auto& [p, e] = move[i];
    edges[i] = &sys.process(p).edges.at(static_cast<std::size_t>(e));
    if (edges[i]->probabilistic()) {
      counts[i] = static_cast<int>(edges[i]->branches.size());
      double sum = 0.0;
      for (const auto& b : edges[i]->branches) sum += b.weight;
      weight_sum[i] = sum;
    }
  }
  std::vector<int> choice(k, -1);
  // Odometer over the branch indices (Dirac edges contribute one slot, -1).
  std::vector<int> counter(k, 0);
  for (;;) {
    double prob = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (edges[i]->probabilistic()) {
        choice[i] = counter[i];
        prob *= edges[i]->branches[static_cast<std::size_t>(counter[i])].weight /
                weight_sum[i];
      } else {
        choice[i] = -1;
      }
    }
    emit(choice, prob);
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < k) {
      if (++counter[pos] < counts[pos]) break;
      counter[pos] = 0;
      ++pos;
    }
    if (pos == k) break;
  }
}

}  // namespace

namespace {

DigitalMdp build_digital_mdp_impl(const ta::System& sys,
                                  const DigitalBuildOptions& opts) {
  DigitalMdp out;
  out.system = &sys;
  ta::DigitalSemantics sem(sys);

  core::StateStore<ta::DigitalState> store;
  core::Worklist work(core::SearchOrder::kBfs);

  auto intern = [&](const ta::DigitalState& s) -> std::int32_t {
    auto [id, inserted] = store.intern(s);
    if (inserted) work.push(id);
    return id;
  };
  ta::MoveList enabled;
  ta::DigitalState next;

  std::int32_t init = intern(sem.initial());
  out.mdp.set_initial(init);

  core::SearchStats stats = core::explore(
      store, work, opts.limits,
      [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        const ta::DigitalState state = store.state(e.id);
        std::size_t taken = 0;

        sem.enabled_moves(state, enabled);
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          ++taken;
          const ta::MoveView move = enabled[i];
          std::vector<mdp::Branch> branches;
          enumerate_branches(sys, move,
                             [&](const std::vector<int>& choice, double p) {
                               sem.apply(state, move, next, choice);
                               branches.push_back(mdp::Branch{intern(next), p});
                             });
          out.mdp.add_choice(e.id, std::move(branches), /*reward=*/0.0);
        }

        if (sem.can_delay(state)) {
          ++taken;
          std::int32_t next = intern(sem.delay_one(state));
          out.mdp.add_choice(e.id, {mdp::Branch{next, 1.0}}, /*reward=*/1.0);
        }
        return taken;
      });
  out.truncated = stats.truncated;
  out.stop = stats.stop;
  out.stats = stats;
  out.states.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    out.states.push_back(store.state(static_cast<std::int32_t>(i)));
  }
  out.mdp.freeze();
  return out;
}

}  // namespace

DigitalMdp build_digital_mdp(const ta::System& sys,
                             const DigitalBuildOptions& opts) {
  opts.limits.validate("pta.build_digital_mdp");
  return common::governed(
      [&] { return build_digital_mdp_impl(sys, opts); },
      [&sys](common::StopReason r) {
        // Degraded result: an empty, truncated MDP. Callers must check
        // `truncated` before trusting any probability computed on it; the
        // contained mdp is left unfrozen (it has no states at all).
        DigitalMdp out;
        out.system = &sys;
        out.truncated = true;
        out.stop = r;
        out.stats.stop_for(r);
        return out;
      });
}

}  // namespace quanta::pta
