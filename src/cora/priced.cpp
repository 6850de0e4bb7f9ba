#include "cora/priced.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "ckpt/delta.h"
#include "ckpt/snapshot_core.h"
#include "ckpt/snapshot_ta.h"
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

std::int64_t PriceModel::move_cost(const ta::Move& m) const {
  std::int64_t total = 0;
  for (const auto& [p, e] : m.participants) {
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
class PricedSearch {
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
        queue_(core::SearchOrder::kPriority) {
    if (opts_.checkpoint.enabled()) {
      chain_.emplace(opts_.checkpoint.path, ckpt::Provider::kPriced,
                     snapshot_fingerprint(), opts_.checkpoint.max_deltas);
    }
  }

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

  bool restore_from(const ckpt::Chain& chain) {
    const ckpt::Section* sec_store = chain.base.find(ckpt::kSecStore);
    const ckpt::Section* sec_work = chain.base.find(ckpt::kSecWorklist);
    const ckpt::Section* sec_stats = chain.base.find(ckpt::kSecSearchStats);
    const ckpt::Section* sec_payload = chain.base.find(ckpt::kSecEnginePayload);
    if (sec_store == nullptr || sec_work == nullptr || sec_stats == nullptr ||
        sec_payload == nullptr) {
      return false;
    }
    std::vector<ta::DigitalState> states;
    std::vector<std::uint8_t> covered;
    {
      ckpt::io::Reader r(sec_store->payload);
      if (!ckpt::read_store_vectors<ta::DigitalState>(
              r, store_.options().inclusion, store_.options().tombstone_covered,
              ckpt::read_digital_state, &states, &covered)) {
        return false;
      }
    }
    std::vector<core::Worklist::Entry> entries;
    {
      ckpt::io::Reader r(sec_work->payload);
      if (!ckpt::read_worklist_entries(r, core::SearchOrder::kPriority,
                                       &entries)) {
        return false;
      }
    }
    std::uint64_t explored = 0;
    std::uint64_t transitions = 0;
    {
      ckpt::io::Reader r(sec_stats->payload);
      if (!ckpt::read_search_stats(r, &explored, &transitions)) return false;
    }
    std::vector<NodeInfo> info;
    {
      ckpt::io::Reader r(sec_payload->payload);
      const std::uint64_t n = r.u64();
      if (!r.ok() || n != states.size() || !r.fits(n, 12)) return false;
      info.resize(static_cast<std::size_t>(n),
                  NodeInfo{kInfCost, -1, {}});
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!read_info(r, n, &info[static_cast<std::size_t>(i)])) return false;
      }
      if (!r.ok()) return false;
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
        if (!ckpt::apply_store_delta<ta::DigitalState>(
                r, ckpt::read_digital_state, &states, &covered, &journal_len)) {
          return false;
        }
      }
      info.resize(states.size(), NodeInfo{kInfCost, -1, {}});
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
        const std::uint64_t n_dirty = r.u64();
        if (!r.ok() || base_n > states.size() || !r.fits(n_dirty, 16)) {
          return false;
        }
        for (std::uint64_t k = 0; k < n_dirty; ++k) {
          const std::int32_t id = r.i32();
          if (id < 0 || static_cast<std::size_t>(id) >= info.size()) {
            return false;
          }
          if (!read_info(r, info.size(), &info[static_cast<std::size_t>(id)])) {
            return false;
          }
        }
        if (!r.ok()) return false;
      }
    }

    prev_entries_ = entries;
    store_ = core::StateStore<ta::DigitalState>::restore(
        store_.options(), std::move(states), std::move(covered));
    info_ = std::move(info);
    dirty_flag_.assign(info_.size(), 0);
    dirty_.clear();
    queue_.restore(std::move(entries));
    baseline_explored_ = explored;
    baseline_transitions_ = transitions;
    saved_states_ = store_.size();
    return true;
  }

  bool save_snapshot(const core::SearchStats& stats,
                     const core::Worklist::Entry& pending) {
    if (!chain_.has_value()) return false;
    // The pending entry re-queues at the BACK: the priority restore adopts
    // the heap array verbatim and sifts a single trailing entry, which is
    // exactly where a just-popped minimum re-inserts without reshuffling.
    std::vector<core::Worklist::Entry> cur = queue_.snapshot();
    cur.push_back(pending);
    const std::uint64_t explored =
        baseline_explored_ + stats.states_explored - 1;
    const std::uint64_t transitions =
        baseline_transitions_ + stats.transitions;

    bool ok;
    if (chain_->want_base()) {
      ckpt::Snapshot snap;
      {
        ckpt::io::Writer w;
        ckpt::write_store(w, store_, ckpt::write_digital_state);
        snap.add_section(ckpt::kSecStore, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_worklist(w, queue_, nullptr, &pending);
        snap.add_section(ckpt::kSecWorklist, std::move(w));
      }
      {
        ckpt::io::Writer w;
        ckpt::write_search_stats(w, explored, transitions);
        snap.add_section(ckpt::kSecSearchStats, std::move(w));
      }
      {
        ckpt::io::Writer w;
        w.u64(info_.size());
        for (const NodeInfo& ni : info_) write_info(w, ni);
        snap.add_section(ckpt::kSecEnginePayload, std::move(w));
      }
      ok = chain_->save_base(snap);
    } else {
      std::vector<ckpt::Section> secs;
      {
        ckpt::io::Writer w;
        ckpt::write_store_delta(w, store_, saved_states_, /*base_journal=*/0,
                                ckpt::write_digital_state);
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
        w.u64(dirty_.size());
        for (std::int32_t id : dirty_) {
          w.i32(id);
          write_info(w, info_[static_cast<std::size_t>(id)]);
        }
        secs.push_back(ckpt::Section{ckpt::kSecEnginePayload, w.take()});
      }
      ok = chain_->save_delta_link(secs);
    }
    if (ok) {
      saved_states_ = store_.size();
      for (std::int32_t id : dirty_) {
        dirty_flag_[static_cast<std::size_t>(id)] = 0;
      }
      dirty_.clear();
      prev_entries_ = std::move(cur);
    }
    return ok;
  }

  MinCostResult run(bool resumed, ckpt::ResumeInfo* resume_out) {
    MinCostResult result;
    if (resume_out != nullptr) result.resume = *resume_out;
    if (!resumed) {
      std::int32_t init = intern(sem_.initial());
      relax(init, 0, -1, "init");
    }
    core::CheckpointHook hook;
    const core::CheckpointHook* hook_ptr = nullptr;
    const std::uint64_t interval = opts_.checkpoint.effective_interval();
    if (chain_.has_value() &&
        (opts_.checkpoint.save_on_stop || interval != 0)) {
      hook.interval = interval;
      hook.sink = [this, &result](const core::SearchStats& s,
                                  const core::Worklist::Entry& pending) {
        if (s.stop != common::StopReason::kCompleted &&
            !opts_.checkpoint.save_on_stop) {
          return;
        }
        if (save_snapshot(s, pending)) result.resume.saved = true;
      };
      hook_ptr = &hook;
    }
    std::int32_t goal_node = -1;
    result.stats = core::explore(
        store_, queue_, opts_.limits,
        [&](const core::Worklist::Entry& e) {
          if (e.key > info_[static_cast<std::size_t>(e.id)].best) {
            return core::Visit::kSkip;  // stale entry
          }
          if (goal_(store_.state(e.id))) {
            goal_node = e.id;
            result.verdict = common::Verdict::kHolds;
            result.cost = e.key;
            return core::Visit::kStop;
          }
          return core::Visit::kContinue;
        },
        [&](const core::Worklist::Entry& e) -> std::size_t {
          const ta::DigitalState state = store_.state(e.id);
          std::size_t taken = 0;
          for (ta::Move& m : sem_.enabled_moves(state)) {
            ++taken;
            std::int64_t c = e.key + prices_.move_cost(m);
            std::string label =
                opts_.record_trace ? m.describe(sem_.system()) : std::string{};
            relax(intern(sem_.apply(state, m)), c, e.id, std::move(label));
          }
          if (sem_.can_delay(state)) {
            ++taken;
            std::int64_t c = e.key + prices_.delay_rate(state.locs);
            relax(intern(sem_.delay_one(state)), c, e.id, "tick");
          }
          return taken;
        },
        opts_.observer, hook_ptr);
    result.stats.states_explored +=
        static_cast<std::size_t>(baseline_explored_);
    result.stats.transitions += static_cast<std::size_t>(baseline_transitions_);
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

  std::int32_t intern(ta::DigitalState s) {
    auto [id, inserted] = store_.intern(std::move(s));
    if (inserted) {
      info_.push_back(NodeInfo{kInfCost, -1, {}});
      dirty_flag_.push_back(0);
      if (opts_.observer != nullptr) {
        opts_.observer->on_state_stored(id, store_.size());
      }
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
  std::uint64_t baseline_explored_ = 0;
  std::uint64_t baseline_transitions_ = 0;
  std::optional<ckpt::ChainWriter> chain_;
  std::size_t saved_states_ = 0;
  std::vector<core::Worklist::Entry> prev_entries_;
};

}  // namespace

MinCostResult min_cost_reachability(const ta::System& sys,
                                    const PriceModel& prices,
                                    const CostPredicate& goal,
                                    const MinCostOptions& opts) {
  opts.limits.validate("cora.min_cost_reachability");
  return common::governed(
      [&] {
        PricedSearch search(sys, prices, goal, opts);
        ckpt::ResumeInfo resume;
        bool resumed = false;
        if (opts.checkpoint.enabled()) {
          resume.path = opts.checkpoint.path;
          if (opts.checkpoint.resume) {
            ckpt::Chain chain;
            resume.load =
                ckpt::load_chain(opts.checkpoint.path,
                                 search.snapshot_fingerprint(),
                                 ckpt::Provider::kPriced, &chain);
            if (resume.load == ckpt::LoadStatus::kOk) {
              resumed = search.restore_from(chain);
              if (!resumed) resume.load = ckpt::LoadStatus::kCorrupt;
            }
            resume.resumed = resumed;
          }
        }
        return search.run(resumed, &resume);
      },
      [&opts](common::StopReason r) {
        MinCostResult result;
        result.stats.stop_for(r);
        result.resume.path = opts.checkpoint.path;
        return result;
      });
}

}  // namespace quanta::cora
