#include "mc/reachability.h"

#include <algorithm>

#include "ckpt/snapshot_ta.h"
#include "ckpt/store_chain.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/traits.h"

namespace quanta::mc {

StatePredicate loc_pred(const ta::System& sys, const std::string& process,
                        const std::string& location) {
  int p = sys.process_index(process);
  int l = sys.process(p).location_index(location);
  return common::loc_index_pred<ta::SymState>(p, l);
}

namespace {

using SymStore = core::StateStore<ta::SymState>;

class Explorer : ckpt::StorePayload {
 public:
  Explorer(const ta::System& sys, const StatePredicate& goal,
           const ReachOptions& opts)
      : sem_(sys, ta::SymbolicSemantics::Options{opts.extrapolate}),
        opts_(opts),
        goal_(goal),
        // The passed list always deduplicates covered zones; the ablation
        // flag only controls tombstoning of strictly-covered stored states.
        store_(SymStore::Options{/*inclusion=*/true,
                                 /*tombstone_covered=*/opts.inclusion_subsumption}),
        waiting_(opts.order),
        chain_(store_, waiting_, *this, opts_.checkpoint) {}

  /// What this search's checkpoints must match to be resumed: the model
  /// skeleton, every option that steers the exploration, and the canonical
  /// AST of the goal predicate — a structurally different query never
  /// resumes this search's checkpoints.
  std::uint64_t snapshot_fingerprint() const {
    ckpt::Fingerprint fp;
    fp.mix(ckpt::fingerprint(sem_.system()))
        .mix(opts_.extrapolate ? 1u : 0u)
        .mix(opts_.inclusion_subsumption ? 1u : 0u)
        .mix(static_cast<std::uint64_t>(opts_.order))
        .mix(opts_.record_trace ? 1u : 0u)
        .mix_str(goal_.canonical());
    return fp.digest();
  }

  /// Resumes from the checkpoint chain when there is one, then runs the
  /// search; returns the index of a goal node or -1.
  std::int32_t run(SearchStats& stats, ckpt::ResumeInfo* resume) {
    if (!chain_.start(ckpt::Provider::kExplore, snapshot_fingerprint(),
                      resume)) {
      add_state(sem_.initial(), -1, {});
    }
    std::int32_t goal_node = -1;
    stats = core::explore(
        store_, waiting_, opts_.limits,
        [&](const core::Worklist::Entry& e) {
          // core::explore expands an entry right after visiting it, so the
          // expand callback below reads this copy instead of materializing
          // the state again (a copy: the store's state vector may
          // reallocate during expansion). It reuses current_'s buffers.
          store_.state_into(e.id, current_);
          if (goal_(current_)) {
            goal_node = e.id;
            return core::Visit::kStop;
          }
          return core::Visit::kContinue;
        },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::SymState& state = current_;
          sem_.enabled_moves(state.locs, state.vars, enabled_);
          std::size_t taken = 0;
          for (std::size_t i = 0; i < enabled_.size(); ++i) {
            if (!sem_.apply_move(state, enabled_[i], next_)) continue;
            ++taken;
            add_state(next_, e.id, enabled_[i]);
          }
          return taken;
        },
        chain_.hook());
    chain_.add_baseline(stats);
    return goal_node;
  }

  std::vector<std::string> trace_to(std::int32_t idx) const {
    std::vector<std::string> trace;
    for (std::int32_t cur = idx; cur >= 0;
         cur = parents_[static_cast<std::size_t>(cur)]) {
      trace.push_back(parents_[static_cast<std::size_t>(cur)] < 0
                          ? "init"
                          : moves_[static_cast<std::size_t>(cur)].describe(
                                sem_.system()));
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  }

  std::string describe(std::int32_t idx) const {
    return sem_.state_to_string(store_.state(idx));
  }

 private:
  /// Payload: the parent and move of every state; a delta carries those of
  /// the states appended since the last save.
  void encode(ckpt::io::Writer& w, bool base,
              std::size_t saved_states) const override {
    if (!base) w.u64(saved_states);
    w.u64(store_.size() - saved_states);
    for (std::size_t i = saved_states; i < parents_.size(); ++i) {
      w.i32(parents_[i]);
    }
    for (std::size_t i = saved_states; i < moves_.size(); ++i) {
      ckpt::write_move(w, moves_[i]);
    }
  }

  bool decode(ckpt::io::Reader& r, bool base, std::size_t states) override {
    const std::uint64_t from = base ? 0 : r.u64();
    const std::uint64_t appended = r.u64();
    if (!r.ok() || from != parents_.size() || from + appended != states ||
        !r.fits(appended, 4)) {
      return false;
    }
    for (std::uint64_t i = 0; i < appended; ++i) parents_.push_back(r.i32());
    for (std::uint64_t i = 0; i < appended; ++i) {
      ta::Move m;
      if (!ckpt::read_move(r, &m)) return false;
      moves_.push_back(std::move(m));
    }
    return r.ok();
  }

  void reset() override {
    parents_.clear();
    moves_.clear();
  }

  void add_state(const ta::SymState& s, std::int32_t parent, ta::MoveView move) {
    auto [id, inserted] = store_.intern(s);
    if (!inserted) return;  // covered by a stored zone
    parents_.push_back(parent);
    moves_.push_back(opts_.record_trace ? ta::Move(move) : ta::Move{});
    waiting_.push(id);
  }

  ta::SymbolicSemantics sem_;
  ReachOptions opts_;
  const StatePredicate& goal_;
  SymStore store_;
  core::Worklist waiting_;
  // Per-state payload, indexed by the store's dense ids.
  std::vector<std::int32_t> parents_;
  std::vector<ta::Move> moves_;  ///< move that produced the state
  ckpt::StoreChain<ta::SymState> chain_;
  // Expansion scratch, reused across states.
  ta::SymState current_;  ///< the state just visited, which expand reads
  ta::MoveList enabled_;
  ta::SymState next_;
};

}  // namespace

ReachResult reachable(const ta::System& sys, const StatePredicate& goal,
                      const ReachOptions& opts) {
  opts.limits.validate("mc.reachability");
  return common::governed(
      [&] {
        Explorer explorer(sys, goal, opts);
        ReachResult result;
        std::int32_t idx = explorer.run(result.stats, &result.resume);
        if (idx >= 0) {
          // A witness is sound no matter what budget would have tripped
          // next: the search stopped with kCompleted before any check.
          result.verdict = common::Verdict::kHolds;
          result.witness = explorer.describe(idx);
          if (opts.record_trace) result.trace = explorer.trace_to(idx);
        } else {
          result.verdict = result.stats.truncated
                               ? common::Verdict::kUnknown
                               : common::Verdict::kViolated;
        }
        return result;
      },
      [&opts](common::StopReason r) {
        ReachResult result;
        result.stats.stop_for(r);
        result.resume.path = opts.checkpoint.path;
        return result;
      });
}

InvariantResult check_invariant(const ta::System& sys,
                                const StatePredicate& safe,
                                const ReachOptions& opts) {
  ReachResult r = reachable(sys, pred_not(safe), opts);
  InvariantResult inv;
  inv.verdict = common::negate(r.verdict);
  inv.stats = r.stats;
  inv.counterexample = std::move(r.trace);
  inv.violating_state = std::move(r.witness);
  inv.resume = std::move(r.resume);
  return inv;
}

}  // namespace quanta::mc
