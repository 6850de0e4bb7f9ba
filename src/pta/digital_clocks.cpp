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

/// Enumerates the product distribution over the participants' branch sets
/// of one move. Its scratch vectors keep their capacity from move to move,
/// so enumeration allocates nothing once they have grown.
class BranchProduct {
 public:
  /// Calls `emit(branch_choice, probability)` once per combination, where
  /// branch_choice[k] is participant k's branch (-1 for a Dirac edge).
  template <typename Emit>
  void enumerate(const ta::System& sys, ta::MoveView move, Emit&& emit) {
    const std::size_t k = move.size();
    slots_.resize(k);
    choice_.assign(k, -1);
    for (std::size_t i = 0; i < k; ++i) {
      const auto& [p, e] = move[i];
      Slot& slot = slots_[i];
      slot = Slot{&sys.process(p).edges.at(static_cast<std::size_t>(e))};
      if (slot.edge->probabilistic()) {
        slot.count = static_cast<int>(slot.edge->branches.size());
        double sum = 0.0;
        for (const auto& b : slot.edge->branches) sum += b.weight;
        slot.weight_sum = sum;
      }
    }
    // Odometer over the branch indices (Dirac edges contribute one slot, -1).
    for (;;) {
      double prob = 1.0;
      for (std::size_t i = 0; i < k; ++i) {
        const Slot& slot = slots_[i];
        if (slot.edge->probabilistic()) {
          choice_[i] = slot.counter;
          prob *= slot.edge->branches[static_cast<std::size_t>(slot.counter)]
                      .weight /
                  slot.weight_sum;
        }
      }
      emit(std::span<const int>(choice_), prob);
      // Advance the odometer.
      std::size_t pos = 0;
      while (pos < k) {
        if (++slots_[pos].counter < slots_[pos].count) break;
        slots_[pos].counter = 0;
        ++pos;
      }
      if (pos == k) break;
    }
  }

 private:
  struct Slot {
    const ta::Edge* edge = nullptr;
    double weight_sum = 1.0;
    int count = 1;    ///< branches of the edge (1 for a Dirac edge)
    int counter = 0;  ///< the odometer digit
  };
  std::vector<Slot> slots_;
  std::vector<int> choice_;
};

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
  BranchProduct product;
  std::vector<mdp::Branch> branches;
  ta::DigitalState state;
  ta::DigitalState next;

  std::int32_t init = intern(sem.initial());
  out.mdp.set_initial(init);

  core::SearchStats stats = core::explore(
      store, work, opts.limits,
      [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
      [&](const core::Worklist::Entry& e) -> std::size_t {
        store.state_into(e.id, state);
        std::size_t taken = 0;

        sem.enabled_moves(state, enabled);
        for (std::size_t i = 0; i < enabled.size(); ++i) {
          ++taken;
          const ta::MoveView move = enabled[i];
          branches.clear();
          product.enumerate(sys, move,
                            [&](std::span<const int> choice, double p) {
                              sem.apply(state, move, next, choice);
                              branches.push_back(mdp::Branch{intern(next), p});
                            });
          out.mdp.add_choice(e.id, branches, /*reward=*/0.0);
        }

        if (sem.can_delay(state)) {
          ++taken;
          sem.delay_one(state, next);
          out.mdp.add_choice(e.id, {mdp::Branch{intern(next), 1.0}},
                             /*reward=*/1.0);
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
