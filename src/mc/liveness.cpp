#include "mc/liveness.h"

#include "ckpt/snapshot_ta.h"
#include "ckpt/store_chain.h"
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
class GraphBuilder : ckpt::StorePayload {
 public:
  GraphBuilder(const ta::SymbolicSemantics& sem, const StatePredicate& phi,
               const StatePredicate& psi, const ReachOptions& opts)
      : sem_(sem),
        opts_(opts),
        work_(core::SearchOrder::kDfs),
        chain_(g_.store, work_, *this, opts_.checkpoint) {
    ckpt::Fingerprint fp;
    fp.mix(0x4C454144u)  // "LEAD"
        .mix(ckpt::fingerprint(sem.system()))
        .mix(opts.extrapolate ? 1u : 0u)
        .mix_str(phi.canonical())
        .mix_str(psi.canonical());
    fp_ = fp.digest();
  }

  Graph& graph() { return g_; }

  /// Resumes from the checkpoint chain when there is one, then builds (the
  /// rest of) the graph.
  SearchStats build(ckpt::ResumeInfo* resume) {
    const bool resumed =
        chain_.start(ckpt::Provider::kLiveness, fp_, resume);
    if (!resumed) intern(sem_.initial());
    // Whether this run will actually extend the graph: a resumed complete
    // snapshot (empty worklist) has nothing to add, and re-saving it would
    // only grow the delta chain with empty links.
    const bool extends = !resumed || !work_.empty();
    SearchStats stats = core::explore(
        g_.store, work_, opts_.limits,
        [](const core::Worklist::Entry&) { return core::Visit::kContinue; },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::SymState state = g_.store.state(e.id);
          sem_.enabled_moves(state.locs, state.vars, enabled_);
          std::vector<std::int32_t> next;
          for (std::size_t i = 0; i < enabled_.size(); ++i) {
            if (sem_.apply_move(state, enabled_[i], next_)) {
              next.push_back(intern(next_));
            }
          }
          const std::size_t taken = next.size();
          g_.succ[static_cast<std::size_t>(e.id)] = std::move(next);
          expand_journal_.push_back(e.id);
          return taken;
        },
        chain_.hook());
    chain_.add_baseline(stats);
    // Build complete: persist the full graph (empty worklist) so a crash
    // during the violation search resumes straight into it. Skipped when
    // this run itself resumed a complete graph — nothing changed.
    if (!stats.truncated && opts_.checkpoint.interval != 0 &&
        extends) {
      chain_.save(stats.states_explored, stats.transitions, nullptr);
    }
    return stats;
  }

 private:
  std::int32_t intern(const ta::SymState& s) {
    auto [id, inserted] = g_.store.intern(s);
    if (inserted) {
      g_.succ.emplace_back();
      work_.push(id);
    }
    return id;
  }

  /// Payload: the expanded nodes in expansion order, each with its
  /// successor list — all of them in a base, those expanded since the last
  /// save in a delta — behind the total node count.
  void encode(ckpt::io::Writer& w, bool base, std::size_t) const override {
    const std::size_t from = base ? 0 : saved_expanded_;
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

  bool decode(ckpt::io::Reader& r, bool base, std::size_t states) override {
    std::vector<std::vector<std::int32_t>>& succ = g_.succ;
    succ.resize(states);
    const std::uint64_t n = r.u64();
    const std::uint64_t from = r.u64();
    const std::uint64_t count = r.u64();
    if (!r.ok() || n != succ.size() || from != expand_journal_.size() ||
        (base && from != 0) || !r.fits(count, 8)) {
      return false;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::int32_t id = r.i32();
      const std::uint32_t len = r.u32();
      if (!r.ok() || id < 0 || static_cast<std::size_t>(id) >= succ.size() ||
          !r.fits(len, 4)) {
        return false;
      }
      std::vector<std::int32_t>& next = succ[static_cast<std::size_t>(id)];
      next.clear();
      next.reserve(len);
      for (std::uint32_t k = 0; k < len; ++k) {
        const std::int32_t child = r.i32();
        if (child < 0 || static_cast<std::size_t>(child) >= succ.size()) {
          return false;
        }
        next.push_back(child);
      }
      expand_journal_.push_back(id);
    }
    return r.ok();
  }

  void mark_saved() override { saved_expanded_ = expand_journal_.size(); }

  void reset() override {
    g_.succ.clear();
    expand_journal_.clear();
  }

  const ta::SymbolicSemantics& sem_;
  const ReachOptions& opts_;
  Graph g_;
  core::Worklist work_;
  std::uint64_t fp_ = 0;
  /// Ids in expansion order; g_.succ[id] is authoritative once id appears.
  std::vector<std::int32_t> expand_journal_;
  std::size_t saved_expanded_ = 0;  ///< expand_journal_ size at the last save
  ckpt::StoreChain<ta::SymState> chain_;
  // Expansion scratch, reused across states.
  ta::MoveList enabled_;
  ta::SymState next_;
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
        result.stats = builder.build(&result.resume);
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
