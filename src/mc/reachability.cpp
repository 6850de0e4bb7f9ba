#include "mc/reachability.h"

#include <algorithm>
#include <optional>

#include "ckpt/delta.h"
#include "ckpt/snapshot_core.h"
#include "ckpt/snapshot_ta.h"
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

class Explorer {
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
        waiting_(opts.order) {
    if (opts_.checkpoint.enabled()) {
      chain_.emplace(opts_.checkpoint.path, ckpt::Provider::kExplore,
                     snapshot_fingerprint(), opts_.checkpoint.max_deltas);
    }
  }

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

  /// Rebuilds store/worklist/payload/counters from a validated checkpoint
  /// chain, replaying the base snapshot and every delta. All-or-nothing:
  /// returns false (leaving the explorer fresh) when any section is missing
  /// or internally inconsistent. The first save after a resume writes a
  /// fresh base.
  bool restore_from(const ckpt::Chain& chain) {
    const ckpt::Section* sec_store = chain.base.find(ckpt::kSecStore);
    const ckpt::Section* sec_work = chain.base.find(ckpt::kSecWorklist);
    const ckpt::Section* sec_stats = chain.base.find(ckpt::kSecSearchStats);
    const ckpt::Section* sec_payload = chain.base.find(ckpt::kSecEnginePayload);
    if (sec_store == nullptr || sec_work == nullptr || sec_stats == nullptr ||
        sec_payload == nullptr) {
      return false;
    }
    std::vector<ta::SymState> states;
    std::vector<std::uint8_t> covered;
    {
      ckpt::io::Reader r(sec_store->payload);
      if (!ckpt::read_store_vectors<ta::SymState>(
              r, store_.options().inclusion, store_.options().tombstone_covered,
              ckpt::read_sym_state, &states, &covered)) {
        return false;
      }
    }
    std::vector<core::Worklist::Entry> entries;
    {
      ckpt::io::Reader r(sec_work->payload);
      if (!ckpt::read_worklist_entries(r, opts_.order, &entries)) return false;
    }
    std::uint64_t explored = 0;
    std::uint64_t transitions = 0;
    {
      ckpt::io::Reader r(sec_stats->payload);
      if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
    }
    std::vector<std::int32_t> parents;
    std::vector<ta::Move> moves;
    {
      ckpt::io::Reader r(sec_payload->payload);
      const std::uint64_t n = r.u64();
      if (n != states.size() || !r.fits(n, 4)) return false;
      parents.resize(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) parents[i] = r.i32();
      moves.resize(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!ckpt::read_move(r, &moves[i])) return false;
      }
      if (!r.ok()) return false;
    }
    // The base's covered flips all predate its journal cut; deltas validate
    // their journal base position against this running length.
    std::uint64_t journal_len = 0;
    for (std::uint8_t c : covered) journal_len += c != 0 ? 1 : 0;

    for (const ckpt::Delta& d : chain.deltas) {
      const ckpt::Section* d_store = d.find(ckpt::kSecStoreDelta);
      const ckpt::Section* d_work = d.find(ckpt::kSecWorklistDelta);
      const ckpt::Section* d_stats = d.find(ckpt::kSecSearchStats);
      const ckpt::Section* d_payload = d.find(ckpt::kSecEnginePayload);
      if (d_store == nullptr || d_work == nullptr || d_stats == nullptr ||
          d_payload == nullptr) {
        return false;
      }
      {
        ckpt::io::Reader r(d_store->payload);
        if (!ckpt::apply_store_delta<ta::SymState>(
                r, ckpt::read_sym_state, &states, &covered, &journal_len)) {
          return false;
        }
      }
      {
        ckpt::io::Reader r(d_work->payload);
        if (!ckpt::apply_worklist_delta(r, &entries)) return false;
      }
      {
        ckpt::io::Reader r(d_stats->payload);
        if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
      }
      {
        ckpt::io::Reader r(d_payload->payload);
        const std::uint64_t base_n = r.u64();
        const std::uint64_t appended = r.u64();
        if (!r.ok() || base_n != parents.size() ||
            base_n + appended != states.size() || !r.fits(appended, 4)) {
          return false;
        }
        for (std::uint64_t i = 0; i < appended; ++i) {
          parents.push_back(r.i32());
        }
        for (std::uint64_t i = 0; i < appended; ++i) {
          ta::Move m;
          if (!ckpt::read_move(r, &m)) return false;
          moves.push_back(std::move(m));
        }
        if (!r.ok()) return false;
      }
    }

    prev_entries_ = entries;
    store_ = SymStore::restore(store_.options(), std::move(states),
                               std::move(covered));
    waiting_.restore(std::move(entries));
    parents_ = std::move(parents);
    moves_ = std::move(moves);
    baseline_explored_ = explored;
    baseline_transitions_ = transitions;
    saved_states_ = store_.size();
    saved_journal_ = store_.covered_journal().size();
    return true;
  }

  /// Serializes the search at the CheckpointHook's consistent point: the
  /// pending entry goes back into the worklist (at the position its order
  /// pops next) and its visit is subtracted from the explored counter, so
  /// the resumed run re-visits and expands it exactly once. Writes a full
  /// base snapshot or appends an incremental delta, per the chain's
  /// compaction policy; the remembered diff positions only advance on a
  /// successful write, so a failed save retries the same (wider) diff.
  bool save_snapshot(const SearchStats& stats,
                     const core::Worklist::Entry& pending) {
    if (!chain_.has_value()) return false;
    const bool front = opts_.order == core::SearchOrder::kBfs;
    std::vector<core::Worklist::Entry> cur;
    {
      const std::vector<core::Worklist::Entry> body = waiting_.snapshot();
      cur.reserve(body.size() + 1);
      if (front) cur.push_back(pending);
      cur.insert(cur.end(), body.begin(), body.end());
      if (!front) cur.push_back(pending);
    }
    const std::uint64_t explored =
        baseline_explored_ + stats.states_explored - 1;
    const std::uint64_t transitions =
        baseline_transitions_ + stats.transitions;

    bool ok;
    if (chain_->want_base()) {
      ckpt::Snapshot snap;
      {
        ckpt::io::Writer w;
        ckpt::write_store(w, store_, ckpt::write_sym_state);
        snap.add_section(ckpt::kSecStore, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_worklist(w, waiting_, front ? &pending : nullptr,
                             front ? nullptr : &pending);
        snap.add_section(ckpt::kSecWorklist, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_search_stats(w, explored, transitions);
        snap.add_section(ckpt::kSecSearchStats, std::move(w));
      }
      {
        ckpt::io::Writer w;
        w.u64(store_.size());
        for (std::int32_t p : parents_) w.i32(p);
        for (const ta::Move& m : moves_) ckpt::write_move(w, m);
        snap.add_section(ckpt::kSecEnginePayload, std::move(w));
      }
      ok = chain_->save_base(snap);
    } else {
      std::vector<ckpt::Section> secs;
      {
        ckpt::io::Writer w;
        ckpt::write_store_delta(w, store_, saved_states_, saved_journal_,
                                ckpt::write_sym_state);
        secs.push_back(ckpt::Section{ckpt::kSecStoreDelta, w.take()});
      }
      {
        ckpt::io::Writer w;
        ckpt::write_worklist_delta(w, prev_entries_, cur);
        secs.push_back(ckpt::Section{ckpt::kSecWorklistDelta, w.take()});
      }
      {
        ckpt::io::Writer w;
        ckpt::write_search_stats(w, explored, transitions);
        secs.push_back(ckpt::Section{ckpt::kSecSearchStats, w.take()});
      }
      {
        ckpt::io::Writer w;
        w.u64(saved_states_);
        w.u64(store_.size() - saved_states_);
        for (std::size_t i = saved_states_; i < parents_.size(); ++i) {
          w.i32(parents_[i]);
        }
        for (std::size_t i = saved_states_; i < moves_.size(); ++i) {
          ckpt::write_move(w, moves_[i]);
        }
        secs.push_back(ckpt::Section{ckpt::kSecEnginePayload, w.take()});
      }
      ok = chain_->save_delta_link(secs);
    }
    if (ok) {
      saved_states_ = store_.size();
      saved_journal_ = store_.covered_journal().size();
      prev_entries_ = std::move(cur);
    }
    return ok;
  }

  /// Runs the search; returns the index of a goal node or -1. With
  /// `resumed` the initial state is already interned (restore_from).
  std::int32_t run(SearchStats& stats, bool resumed,
                   ckpt::ResumeInfo* resume) {
    if (!resumed) add_state(sem_.initial(), -1, ta::Move{});
    std::int32_t goal_node = -1;
    core::CheckpointHook hook;
    const core::CheckpointHook* hook_ptr = nullptr;
    const std::uint64_t interval = opts_.checkpoint.effective_interval();
    if (opts_.checkpoint.enabled() &&
        (opts_.checkpoint.save_on_stop || interval != 0)) {
      hook.interval = interval;
      hook.sink = [this, resume](const SearchStats& s,
                                 const core::Worklist::Entry& pending) {
        if (s.stop != common::StopReason::kCompleted &&
            !opts_.checkpoint.save_on_stop) {
          return;
        }
        const bool ok = save_snapshot(s, pending);
        if (resume != nullptr && ok) resume->saved = true;
      };
      hook_ptr = &hook;
    }
    stats = core::explore(
        store_, waiting_, opts_.limits,
        [&](const core::Worklist::Entry& e) {
          if (goal_(store_.state(e.id))) {
            goal_node = e.id;
            return core::Visit::kStop;
          }
          return core::Visit::kContinue;
        },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          // Copy: the store's state vector may reallocate during expansion.
          const ta::SymState state = store_.state(e.id);
          std::size_t taken = 0;
          for (auto& tr : sem_.successors(state)) {
            ++taken;
            add_state(std::move(tr.state), e.id, std::move(tr.move));
          }
          return taken;
        },
        opts_.observer, hook_ptr);
    stats.states_explored += static_cast<std::size_t>(baseline_explored_);
    stats.transitions += static_cast<std::size_t>(baseline_transitions_);
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
  void add_state(ta::SymState s, std::int32_t parent, ta::Move move) {
    auto [id, inserted] = store_.intern(std::move(s));
    if (!inserted) return;  // covered by a stored zone
    parents_.push_back(parent);
    moves_.push_back(opts_.record_trace ? std::move(move) : ta::Move{});
    waiting_.push(id);
    if (opts_.observer != nullptr) {
      opts_.observer->on_state_stored(id, store_.size());
    }
  }

  ta::SymbolicSemantics sem_;
  ReachOptions opts_;
  const StatePredicate& goal_;
  SymStore store_;
  core::Worklist waiting_;
  // Per-state payload, indexed by the store's dense ids.
  std::vector<std::int32_t> parents_;
  std::vector<ta::Move> moves_;  ///< move that produced the state
  // Counters carried over from the interrupted run when resuming.
  std::uint64_t baseline_explored_ = 0;
  std::uint64_t baseline_transitions_ = 0;
  // Delta-snapshot bookkeeping: the chain being appended to and the store /
  // covered-journal / worklist positions of the last successful save.
  std::optional<ckpt::ChainWriter> chain_;
  std::size_t saved_states_ = 0;
  std::size_t saved_journal_ = 0;
  std::vector<core::Worklist::Entry> prev_entries_;
};

}  // namespace

ReachResult reachable(const ta::System& sys, const StatePredicate& goal,
                      const ReachOptions& opts) {
  opts.limits.validate("mc.reachability");
  return common::governed(
      [&] {
        Explorer explorer(sys, goal, opts);
        ReachResult result;
        bool resumed = false;
        if (opts.checkpoint.enabled()) {
          result.resume.path = opts.checkpoint.path;
          if (opts.checkpoint.resume) {
            ckpt::Chain chain;
            result.resume.load =
                ckpt::load_chain(opts.checkpoint.path,
                                 explorer.snapshot_fingerprint(),
                                 ckpt::Provider::kExplore, &chain);
            if (result.resume.load == ckpt::LoadStatus::kOk) {
              resumed = explorer.restore_from(chain);
              // Validated but not reconstructible (section layout drift):
              // degrade to a fresh start, reported as corruption.
              if (!resumed) result.resume.load = ckpt::LoadStatus::kCorrupt;
            }
            result.resume.resumed = resumed;
          }
        }
        std::int32_t idx = explorer.run(result.stats, resumed, &result.resume);
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
