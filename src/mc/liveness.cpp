#include "mc/liveness.h"

#include <optional>

#include "ckpt/delta.h"
#include "ckpt/snapshot_core.h"
#include "ckpt/snapshot_ta.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/traits.h"

namespace quanta::mc {

namespace {

/// The zone graph with exact-equality interning: liveness needs the full
/// successor structure, so subsumption is off and states dedup on
/// (discrete, zone) identity via the exploration core's exact policy.
struct Graph {
  core::StateStore<ta::SymState> store;
  std::vector<std::vector<std::int32_t>> succ;

  std::size_t size() const { return store.size(); }
  /// By value: the pooled store materializes states on demand.
  ta::SymState state(std::size_t i) const {
    return store.state(static_cast<std::int32_t>(i));
  }
};

/// Builds the zone graph under Provider::kLiveness checkpointing. The
/// resumable state is the exact store, the DFS worklist and the successor
/// lists in *expansion order* (an append-only journal — each expansion
/// assigns exactly one node's list, so a delta carries just the journal
/// suffix). Once the build completes, the whole graph is saved with an
/// empty worklist: resuming that snapshot skips construction entirely and
/// the violation search — a pure function of the complete graph — reruns.
class GraphBuilder {
 public:
  GraphBuilder(const ta::SymbolicSemantics& sem, const StatePredicate& phi,
               const StatePredicate& psi, const ReachOptions& opts)
      : sem_(sem), opts_(opts), work_(core::SearchOrder::kDfs) {
    ckpt::Fingerprint fp;
    fp.mix(0x4C454144u)  // "LEAD"
        .mix(ckpt::fingerprint(sem.system()))
        .mix(opts.extrapolate ? 1u : 0u)
        .mix_str(phi.canonical())
        .mix_str(psi.canonical());
    fp_ = fp.digest();
    if (opts_.checkpoint.enabled()) {
      chain_.emplace(opts_.checkpoint.path, ckpt::Provider::kLiveness, fp_,
                     opts_.checkpoint.max_deltas);
    }
  }

  std::uint64_t fingerprint() const { return fp_; }
  Graph& graph() { return g_; }

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
              r, g_.store.options().inclusion,
              g_.store.options().tombstone_covered, ckpt::read_sym_state,
              &states, &covered)) {
        return false;
      }
    }
    std::vector<core::Worklist::Entry> entries;
    {
      ckpt::io::Reader r(sec_work->payload);
      if (!ckpt::read_worklist_entries(r, core::SearchOrder::kDfs, &entries)) {
        return false;
      }
    }
    std::uint64_t explored = 0;
    std::uint64_t transitions = 0;
    {
      ckpt::io::Reader r(sec_stats->payload);
      if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
    }
    std::vector<std::vector<std::int32_t>> succ(states.size());
    std::vector<std::int32_t> journal;
    if (!read_succ_journal(sec_payload->payload, /*delta=*/false, &succ,
                           &journal)) {
      return false;
    }

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
      succ.resize(states.size());
      {
        ckpt::io::Reader r(d_work->payload);
        if (!ckpt::apply_worklist_delta(r, &entries)) return false;
      }
      {
        ckpt::io::Reader r(d_stats->payload);
        if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
      }
      if (!read_succ_journal(d_payload->payload, /*delta=*/true, &succ,
                             &journal)) {
        return false;
      }
    }

    prev_entries_ = entries;
    g_.store = core::StateStore<ta::SymState>::restore(
        g_.store.options(), std::move(states), std::move(covered));
    g_.succ = std::move(succ);
    expand_journal_ = std::move(journal);
    work_.restore(std::move(entries));
    baseline_explored_ = explored;
    baseline_transitions_ = transitions;
    saved_states_ = g_.store.size();
    saved_expanded_ = expand_journal_.size();
    return true;
  }

  /// `pending` is the popped-but-unexpanded entry of an interrupted build
  /// (re-queued at the back, DFS pops next), or nullptr for the complete-
  /// graph snapshot written after the build finishes.
  bool save_snapshot(std::uint64_t explored, std::uint64_t transitions,
                     const core::Worklist::Entry* pending) {
    if (!chain_.has_value()) return false;
    std::vector<core::Worklist::Entry> cur = work_.snapshot();
    if (pending != nullptr) cur.push_back(*pending);

    bool ok;
    if (chain_->want_base()) {
      ckpt::Snapshot snap;
      {
        ckpt::io::Writer w;
        ckpt::write_store(w, g_.store, ckpt::write_sym_state);
        snap.add_section(ckpt::kSecStore, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_worklist(w, work_, nullptr, pending);
        snap.add_section(ckpt::kSecWorklist, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_search_stats(w, explored, transitions);
        snap.add_section(ckpt::kSecSearchStats, std::move(w));
      }
      {
        ckpt::io::Writer w;
        write_succ_journal(w, 0);
        snap.add_section(ckpt::kSecEnginePayload, std::move(w));
      }
      ok = chain_->save_base(snap);
    } else {
      std::vector<ckpt::Section> secs;
      {
        ckpt::io::Writer w;
        ckpt::write_store_delta(w, g_.store, saved_states_,
                                /*base_journal=*/0, ckpt::write_sym_state);
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
        write_succ_journal(w, saved_expanded_);
        secs.push_back(ckpt::Section{ckpt::kSecEnginePayload, w.take()});
      }
      ok = chain_->save_delta_link(secs);
    }
    if (ok) {
      saved_states_ = g_.store.size();
      saved_expanded_ = expand_journal_.size();
      prev_entries_ = std::move(cur);
    }
    return ok;
  }

  SearchStats build(bool resumed, ckpt::ResumeInfo* resume) {
    if (!resumed) intern(sem_.initial());
    core::CheckpointHook hook;
    const core::CheckpointHook* hook_ptr = nullptr;
    const std::uint64_t interval = opts_.checkpoint.effective_interval();
    if (chain_.has_value() &&
        (opts_.checkpoint.save_on_stop || interval != 0)) {
      hook.interval = interval;
      hook.sink = [this, resume](const SearchStats& s,
                                 const core::Worklist::Entry& pending) {
        if (s.stop != common::StopReason::kCompleted &&
            !opts_.checkpoint.save_on_stop) {
          return;
        }
        const bool ok =
            save_snapshot(baseline_explored_ + s.states_explored - 1,
                          baseline_transitions_ + s.transitions, &pending);
        if (resume != nullptr && ok) resume->saved = true;
      };
      hook_ptr = &hook;
    }
    // Whether this run will actually extend the graph: a resumed complete
    // snapshot (empty worklist) has nothing to add, and re-saving it would
    // only grow the delta chain with empty links.
    const bool extends = !resumed || !work_.empty();
    SearchStats stats = core::explore(
        g_.store, work_, opts_.limits,
        [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::SymState state = g_.store.state(e.id);
          std::vector<std::int32_t> next;
          for (auto& tr : sem_.successors(state)) {
            next.push_back(intern(std::move(tr.state)));
          }
          const std::size_t taken = next.size();
          g_.succ[static_cast<std::size_t>(e.id)] = std::move(next);
          expand_journal_.push_back(e.id);
          return taken;
        },
        opts_.observer, hook_ptr);
    stats.states_explored += static_cast<std::size_t>(baseline_explored_);
    stats.transitions += static_cast<std::size_t>(baseline_transitions_);
    // Build complete: persist the full graph (empty worklist) so a crash
    // during the violation search resumes straight into it. Skipped when
    // this run itself resumed a complete graph — nothing changed.
    if (!stats.truncated && chain_.has_value() && interval != 0 && extends) {
      const bool ok = save_snapshot(stats.states_explored, stats.transitions,
                                    nullptr);
      if (resume != nullptr && ok) resume->saved = true;
    }
    return stats;
  }

 private:
  std::int32_t intern(ta::SymState s) {
    auto [id, inserted] = g_.store.intern(std::move(s));
    if (inserted) {
      g_.succ.emplace_back();
      work_.push(id);
      if (opts_.observer != nullptr) {
        opts_.observer->on_state_stored(id, g_.store.size());
      }
    }
    return id;
  }

  /// Successor-journal codec: the expanded nodes from `from` on, in
  /// expansion order, each with its successor list. The same layout serves
  /// the base section (from = 0, prefixed with the total node count) and
  /// the delta suffix (from = last saved position).
  void write_succ_journal(ckpt::io::Writer& w, std::size_t from) const {
    w.u64(g_.store.size());
    w.u64(from);
    w.u64(expand_journal_.size() - from);
    for (std::size_t i = from; i < expand_journal_.size(); ++i) {
      const std::int32_t id = expand_journal_[i];
      const auto& next = g_.succ[static_cast<std::size_t>(id)];
      w.i32(id);
      w.u32(static_cast<std::uint32_t>(next.size()));
      for (std::int32_t child : next) w.i32(child);
    }
  }

  static bool read_succ_journal(const std::vector<std::uint8_t>& payload,
                                bool delta,
                                std::vector<std::vector<std::int32_t>>* succ,
                                std::vector<std::int32_t>* journal) {
    ckpt::io::Reader r(payload);
    const std::uint64_t n = r.u64();
    const std::uint64_t from = r.u64();
    const std::uint64_t count = r.u64();
    if (!r.ok() || n != succ->size() || from != journal->size() ||
        (!delta && from != 0) || !r.fits(count, 8)) {
      return false;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::int32_t id = r.i32();
      const std::uint32_t len = r.u32();
      if (!r.ok() || id < 0 || static_cast<std::size_t>(id) >= succ->size() ||
          !r.fits(len, 4)) {
        return false;
      }
      std::vector<std::int32_t>& next = (*succ)[static_cast<std::size_t>(id)];
      next.clear();
      next.reserve(len);
      for (std::uint32_t k = 0; k < len; ++k) {
        const std::int32_t child = r.i32();
        if (child < 0 || static_cast<std::size_t>(child) >= succ->size()) {
          return false;
        }
        next.push_back(child);
      }
      journal->push_back(id);
    }
    return r.ok();
  }

  const ta::SymbolicSemantics& sem_;
  const ReachOptions& opts_;
  Graph g_;
  core::Worklist work_;
  std::uint64_t fp_ = 0;
  /// Ids in expansion order; g_.succ[id] is authoritative once id appears.
  std::vector<std::int32_t> expand_journal_;
  std::uint64_t baseline_explored_ = 0;
  std::uint64_t baseline_transitions_ = 0;
  std::optional<ckpt::ChainWriter> chain_;
  std::size_t saved_states_ = 0;
  std::size_t saved_expanded_ = 0;
  std::vector<core::Worklist::Entry> prev_entries_;
};

/// Iterative detection of a cycle or dead-end inside the non-psi subgraph
/// restricted to nodes reachable from `roots`. Returns a reason string, or
/// empty if the obligation holds.
std::string find_violation(const Graph& g, const std::vector<bool>& is_psi,
                           const std::vector<int>& roots) {
  const int n = static_cast<int>(g.size());
  // Colors: 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<char> color(static_cast<std::size_t>(n), 0);
  struct Frame {
    int node;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  for (int root : roots) {
    if (is_psi[static_cast<std::size_t>(root)]) continue;  // discharged at once
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    stack.push_back(Frame{root, 0});
    color[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto& succ = g.succ[static_cast<std::size_t>(f.node)];
      if (succ.empty()) {
        return "non-psi state with no successors (stuck run)";
      }
      if (f.next_child == succ.size()) {
        color[static_cast<std::size_t>(f.node)] = 2;
        stack.pop_back();
        continue;
      }
      int child = succ[f.next_child++];
      if (is_psi[static_cast<std::size_t>(child)]) continue;  // obligation met
      char& c = color[static_cast<std::size_t>(child)];
      if (c == 1) {
        return "cycle of non-psi states (psi can be avoided forever)";
      }
      if (c == 0) {
        c = 1;
        stack.push_back(Frame{child, 0});
      }
    }
  }
  return {};
}

}  // namespace

LeadsToResult check_leads_to(const ta::System& sys, const StatePredicate& phi,
                             const StatePredicate& psi,
                             const ReachOptions& opts) {
  opts.limits.validate("mc.liveness");
  return common::governed(
      [&] {
        ta::SymbolicSemantics sem(
            sys, ta::SymbolicSemantics::Options{opts.extrapolate});
        LeadsToResult result;
        GraphBuilder builder(sem, phi, psi, opts);
        bool resumed = false;
        if (opts.checkpoint.enabled()) {
          result.resume.path = opts.checkpoint.path;
          if (opts.checkpoint.resume) {
            ckpt::Chain chain;
            result.resume.load =
                ckpt::load_chain(opts.checkpoint.path, builder.fingerprint(),
                                 ckpt::Provider::kLiveness, &chain);
            if (result.resume.load == ckpt::LoadStatus::kOk) {
              resumed = builder.restore_from(chain);
              if (!resumed) result.resume.load = ckpt::LoadStatus::kCorrupt;
            }
            result.resume.resumed = resumed;
          }
        }
        result.stats = builder.build(resumed, &result.resume);
        if (result.stats.truncated) {
          // Unexpanded frontier states would read as stuck runs; a truncated
          // graph supports no verdict at all.
          result.verdict = common::Verdict::kUnknown;
          result.reason = std::string("state space truncated (") +
                          common::to_string(result.stats.stop) + ")";
          return result;
        }
        const Graph& g = builder.graph();
        std::vector<bool> is_psi(g.size());
        std::vector<int> roots;
        for (std::size_t i = 0; i < g.size(); ++i) {
          const ta::SymState s = g.state(i);
          is_psi[i] = psi(s);
          if (!is_psi[i] && phi(s)) {
            roots.push_back(static_cast<int>(i));
          }
        }
        result.reason = find_violation(g, is_psi, roots);
        result.verdict = result.reason.empty() ? common::Verdict::kHolds
                                               : common::Verdict::kViolated;
        return result;
      },
      [&opts](common::StopReason r) {
        LeadsToResult result;
        result.stats.stop_for(r);
        result.reason = std::string("analysis aborted (") +
                        common::to_string(r) + ")";
        result.resume.path = opts.checkpoint.path;
        return result;
      });
}

LeadsToResult check_eventually(const ta::System& sys,
                               const StatePredicate& psi,
                               const ReachOptions& opts) {
  // A<> psi == (initial --> psi): only the initial state seeds the search.
  // The canonical form "initial" is structural — it denotes the model's
  // unique initial symbolic state, so the fingerprint stays collision-free.
  ta::SymbolicSemantics sem(sys, ta::SymbolicSemantics::Options{opts.extrapolate});
  ta::SymState init = sem.initial();
  StatePredicate initial_only(
      [init](const ta::SymState& s) {
        return s.same_discrete(init) && s.zone == init.zone;
      },
      "initial");
  return check_leads_to(sys, initial_only, psi, opts);
}

PossiblyAlwaysResult check_possibly_always(const ta::System& sys,
                                           const StatePredicate& psi,
                                           const ReachOptions& opts) {
  LeadsToResult dual = check_eventually(sys, pred_not(psi), opts);
  PossiblyAlwaysResult result;
  result.stats = dual.stats;
  result.verdict = common::negate(dual.verdict);
  result.resume = std::move(dual.resume);
  return result;
}

}  // namespace quanta::mc
