#include "cora/priced.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "ckpt/snapshot_ta.h"
#include "ckpt/store_chain.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/traits.h"

namespace quanta::cora {

PriceModel::PriceModel(const ta::System& sys) {
  rates_.resize(static_cast<std::size_t>(sys.process_count()));
  edge_costs_.resize(static_cast<std::size_t>(sys.process_count()));
  for (int p = 0; p < sys.process_count(); ++p) {
    rates_[static_cast<std::size_t>(p)].assign(sys.process(p).locations.size(), 0);
    edge_costs_[static_cast<std::size_t>(p)].assign(sys.process(p).edges.size(), 0);
  }
}

void PriceModel::set_location_rate(int process, int location, std::int64_t rate) {
  if (rate < 0) throw std::invalid_argument("negative cost rates unsupported");
  rates_.at(static_cast<std::size_t>(process)).at(static_cast<std::size_t>(location)) = rate;
}

void PriceModel::set_edge_cost(int process, int edge, std::int64_t cost) {
  if (cost < 0) throw std::invalid_argument("negative edge costs unsupported");
  edge_costs_.at(static_cast<std::size_t>(process)).at(static_cast<std::size_t>(edge)) = cost;
}

std::int64_t PriceModel::delay_rate(const std::vector<int>& locs) const {
  std::int64_t total = 0;
  for (std::size_t p = 0; p < locs.size(); ++p) {
    total += rates_[p][static_cast<std::size_t>(locs[p])];
  }
  return total;
}

std::int64_t PriceModel::move_cost(ta::MoveView m) const {
  std::int64_t total = 0;
  for (const auto& [p, e] : m) {
    total += edge_costs_[static_cast<std::size_t>(p)][static_cast<std::size_t>(e)];
  }
  return total;
}

namespace {

constexpr std::int64_t kInfCost = std::numeric_limits<std::int64_t>::max();

void write_str(ckpt::io::Writer& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

bool read_str(ckpt::io::Reader& r, std::string* out) {
  const std::uint32_t len = r.u32();
  if (!r.ok() || !r.fits(len, 1)) return false;
  out->resize(len);
  return len == 0 || r.bytes(out->data(), len);
}

/// Dijkstra over the digital semantics with Provider::kPriced checkpointing.
/// The resumable state is the store, the cost-ordered worklist (whose heap
/// array round-trips verbatim, keeping the pop order bit-identical) and the
/// per-node (best, parent, action) table. Relaxations mutate the table in
/// place, so deltas carry a dirty-id journal — every node whose entry
/// changed since the last save — instead of assuming append-only growth.
class PricedSearch : ckpt::StorePayload {
 public:
  struct NodeInfo {
    std::int64_t best;
    std::int32_t parent;
    std::string action;
  };

  PricedSearch(const ta::System& sys, const PriceModel& prices,
               const CostPredicate& goal, const MinCostOptions& opts)
      : sem_(sys),
        prices_(prices),
        goal_(goal),
        opts_(opts),
        queue_(core::SearchOrder::kPriority),
        chain_(store_, queue_, *this, opts_.checkpoint) {}

  /// The model skeleton, the complete price annotation, the trace switch
  /// (it changes the serialized payload) and the canonical AST of the goal.
  std::uint64_t snapshot_fingerprint() const {
    ckpt::Fingerprint fp;
    fp.mix(0x434F5241u)  // "CORA"
        .mix(ckpt::fingerprint(sem_.system()))
        .mix(opts_.record_trace ? 1u : 0u)
        .mix_str(goal_.canonical());
    const ta::System& sys = sem_.system();
    for (int p = 0; p < sys.process_count(); ++p) {
      for (std::size_t l = 0; l < sys.process(p).locations.size(); ++l) {
        fp.mix(static_cast<std::uint64_t>(
            prices_.location_rate(p, static_cast<int>(l))));
      }
      for (std::size_t e = 0; e < sys.process(p).edges.size(); ++e) {
        fp.mix(static_cast<std::uint64_t>(
            prices_.edge_cost(p, static_cast<int>(e))));
      }
    }
    return fp.digest();
  }

  /// Resumes from the checkpoint chain when there is one, then runs the
  /// search.
  MinCostResult run() {
    MinCostResult result;
    if (!chain_.start(ckpt::Provider::kPriced, snapshot_fingerprint(),
                      &result.resume)) {
      std::int32_t init = intern(sem_.initial());
      relax(init, 0, -1, "init");
    }
    std::int32_t goal_node = -1;
    result.stats = core::explore(
        store_, queue_, opts_.limits,
        [&](const core::Worklist::Entry& e) {
          if (e.key > info_[static_cast<std::size_t>(e.id)].best) {
            return core::Visit::kSkip;  // stale entry
          }
          // core::explore expands an entry right after visiting it, so the
          // expand callback below reads this copy instead of materializing
          // the state again.
          current_ = store_.state(e.id);
          if (goal_(current_)) {
            goal_node = e.id;
            result.verdict = common::Verdict::kHolds;
            result.cost = e.key;
            return core::Visit::kStop;
          }
          return core::Visit::kContinue;
        },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::DigitalState& state = current_;
          std::size_t taken = 0;
          sem_.enabled_moves(state, enabled_);
          for (std::size_t i = 0; i < enabled_.size(); ++i) {
            ++taken;
            std::int64_t c = e.key + prices_.move_cost(enabled_[i]);
            std::string label = opts_.record_trace
                                    ? ta::Move(enabled_[i]).describe(sem_.system())
                                    : std::string{};
            sem_.apply(state, enabled_[i], next_);
            relax(intern(next_), c, e.id, std::move(label));
          }
          if (sem_.can_delay(state)) {
            ++taken;
            std::int64_t c = e.key + prices_.delay_rate(state.locs);
            relax(intern(sem_.delay_one(state)), c, e.id, "tick");
          }
          return taken;
        },
        chain_.hook());
    chain_.add_baseline(result.stats);
    if (goal_node < 0 && !result.stats.truncated) {
      result.verdict = common::Verdict::kViolated;
    }
    if (goal_node >= 0 && opts_.record_trace) {
      for (std::int32_t cur = goal_node; cur >= 0;
           cur = info_[static_cast<std::size_t>(cur)].parent) {
        result.trace.push_back(info_[static_cast<std::size_t>(cur)].action);
      }
      std::reverse(result.trace.begin(), result.trace.end());
    }
    return result;
  }

 private:
  /// Payload: every node's (best, parent, action) in a base; in a delta,
  /// the entries of the nodes relaxed since the last save, by id.
  void encode(ckpt::io::Writer& w, bool base,
              std::size_t saved_states) const override {
    if (base) {
      w.u64(info_.size());
      for (const NodeInfo& ni : info_) write_info(w, ni);
      return;
    }
    w.u64(saved_states);
    w.u64(dirty_.size());
    for (std::int32_t id : dirty_) {
      w.i32(id);
      write_info(w, info_[static_cast<std::size_t>(id)]);
    }
  }

  bool decode(ckpt::io::Reader& r, bool base, std::size_t states) override {
    info_.resize(states, NodeInfo{kInfCost, -1, {}});
    dirty_flag_.resize(states, 0);
    if (base) {
      const std::uint64_t n = r.u64();
      if (!r.ok() || n != states || !r.fits(n, 12)) return false;
      for (NodeInfo& ni : info_) {
        if (!read_info(r, states, &ni)) return false;
      }
      return r.ok();
    }
    const std::uint64_t base_n = r.u64();
    const std::uint64_t n_dirty = r.u64();
    if (!r.ok() || base_n > states || !r.fits(n_dirty, 16)) return false;
    for (std::uint64_t k = 0; k < n_dirty; ++k) {
      const std::int32_t id = r.i32();
      if (id < 0 || static_cast<std::size_t>(id) >= states ||
          !read_info(r, states, &info_[static_cast<std::size_t>(id)])) {
        return false;
      }
    }
    return r.ok();
  }

  void mark_saved() override {
    for (std::int32_t id : dirty_) dirty_flag_[static_cast<std::size_t>(id)] = 0;
    dirty_.clear();
  }

  void reset() override {
    info_.clear();
    dirty_flag_.clear();
  }

  static void write_info(ckpt::io::Writer& w, const NodeInfo& ni) {
    w.i64(ni.best);
    w.i32(ni.parent);
    write_str(w, ni.action);
  }

  static bool read_info(ckpt::io::Reader& r, std::size_t n, NodeInfo* ni) {
    ni->best = r.i64();
    ni->parent = r.i32();
    if (!r.ok() || ni->parent < -1 ||
        (ni->parent >= 0 && static_cast<std::size_t>(ni->parent) >= n)) {
      return false;
    }
    return read_str(r, &ni->action);
  }

  std::int32_t intern(const ta::DigitalState& s) {
    auto [id, inserted] = store_.intern(s);
    if (inserted) {
      info_.push_back(NodeInfo{kInfCost, -1, {}});
      dirty_flag_.push_back(0);
    }
    return id;
  }

  void relax(std::int32_t to, std::int64_t cost, std::int32_t from,
             std::string action) {
    NodeInfo& ni = info_[static_cast<std::size_t>(to)];
    if (cost < ni.best) {
      ni = NodeInfo{cost, from,
                    opts_.record_trace ? std::move(action) : std::string{}};
      queue_.push(to, cost);
      if (!dirty_flag_[static_cast<std::size_t>(to)]) {
        dirty_flag_[static_cast<std::size_t>(to)] = 1;
        dirty_.push_back(to);
      }
    }
  }

  ta::DigitalSemantics sem_;
  const PriceModel& prices_;
  const CostPredicate& goal_;
  const MinCostOptions& opts_;
  core::StateStore<ta::DigitalState> store_;
  // Dijkstra = the core loop with a cost-ordered worklist and lazy
  // decrease-key: stale queue entries are skipped on pop.
  core::Worklist queue_;
  std::vector<NodeInfo> info_;
  // Ids whose NodeInfo changed since the last successful save (each listed
  // once — the flag dedups repeat relaxations of the same node).
  std::vector<std::int32_t> dirty_;
  std::vector<char> dirty_flag_;
  ckpt::StoreChain<ta::DigitalState> chain_;
  // Expansion scratch, reused across states.
  ta::DigitalState current_;  ///< the state just visited, which expand reads
  ta::MoveList enabled_;
  ta::DigitalState next_;
};

}  // namespace

MinCostResult min_cost_reachability(const ta::System& sys,
                                    const PriceModel& prices,
                                    const CostPredicate& goal,
                                    const MinCostOptions& opts) {
  opts.limits.validate("cora.min_cost_reachability");
  return common::governed(
      [&] {
        return PricedSearch(sys, prices, goal, opts).run();
      },
      [&opts](common::StopReason r) {
        MinCostResult result;
        result.stats.stop_for(r);
        result.resume.path = opts.checkpoint.path;
        return result;
      });
}

}  // namespace quanta::cora
