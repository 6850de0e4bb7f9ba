// The checkpoint driver of the store-based engines: mc reachability, mc
// leads-to, TIGA and CORA all run core::explore over a core::StateStore and
// a core::Worklist, and StoreChain checkpoints that core for all of them:
//
//   * save — a base record (store, worklist, search counters, engine
//     payload) whenever the ChainWriter wants one, else a delta record with
//     only what changed since the last successful save: the appended states
//     and covered flips, a worklist splice, the counters and the payload
//     suffix (src/ckpt/delta.h). The diff positions advance only on a
//     successful write, so a failed save retries the same, wider diff;
//   * the pending entry — popped by an interrupted search but not expanded —
//     goes back where its order pops next: the front for BFS, the back for
//     DFS and for a priority heap (whose restore sifts one trailing entry
//     into place), and its visit is taken off the explored counter, so the
//     resumed run visits and expands it exactly once;
//   * the core::CheckpointHook — a save every Options::interval explored
//     states and one when a budget stops the search (unless save_on_stop is
//     off);
//   * resume — load_chain, then the base and every delta replayed into the
//     store, the worklist and the counters. All-or-nothing: a chain that
//     validates but does not rebuild is reported kCorrupt and the run starts
//     fresh. The first save after a resume starts a new chain with a base.
//
// The engine supplies only its payload codec (StorePayload): the per-state
// data core::explore does not know about (parents and moves, successor
// lists, costs, game edges), written whole into a base and as a suffix into
// a delta.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/delta.h"
#include "ckpt/io.h"
#include "ckpt/snapshot_core.h"
#include "common/budget.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"

namespace quanta::ckpt {

/// The engine-specific part of a store-engine checkpoint, carried in
/// kSecEnginePayload.
class StorePayload {
 public:
  /// Writes the payload: all of it when `base`, else what changed since
  /// the last successful save. `saved_states` is the store size at that
  /// save (0 before the first).
  virtual void encode(io::Writer& w, bool base,
                      std::size_t saved_states) const = 0;
  /// Applies one record's payload — the base's first, then each delta's in
  /// chain order — on top of what the records before it decoded. `states`
  /// is the store size once this record's store section is applied.
  virtual bool decode(io::Reader& r, bool base, std::size_t states) = 0;
  /// Reads what a record holds beyond the driver's sections (a save's
  /// `extra`); nothing unless the engine writes such sections.
  virtual bool decode_extra(const std::vector<Section>& /*record*/,
                            std::size_t /*states*/) {
    return true;
  }
  /// A save was written: the next delta's payload starts from here.
  virtual void mark_saved() {}
  /// Drops everything decode applied, so a chain that does not restore
  /// leaves the engine fresh.
  virtual void reset() = 0;

 protected:
  ~StorePayload() = default;
};

template <typename S, typename Traits = core::StateTraits<S>>
class StoreChain {
 public:
  using Store = core::StateStore<S, Traits>;
  using Entry = core::Worklist::Entry;

  StoreChain(Store& store, core::Worklist& work, StorePayload& payload,
             const Options& opts)
      : store_(store), work_(work), payload_(payload), opts_(opts) {}
  StoreChain(const StoreChain&) = delete;
  StoreChain& operator=(const StoreChain&) = delete;

  /// Arms the driver for one run under (provider, fingerprint) — a new
  /// chain at Options::path — and, when `may_resume` and Options::resume
  /// allow, restores the chain already there. Records the outcome in
  /// `*info`, whose `saved` every later successful save sets. Returns
  /// whether the run resumed. Without a path the driver stays disarmed.
  bool start(Provider provider, std::uint64_t fingerprint, ResumeInfo* info,
             bool may_resume = true) {
    writer_.reset();
    info_ = info;
    if (!opts_.enabled()) return false;
    info->path = opts_.path;
    // A new writer's first save is a base, which resets the diff positions.
    writer_.emplace(opts_.path, provider, fingerprint, opts_.max_deltas);
    if (!opts_.resume || !may_resume) return false;
    Chain chain;
    info->load = load_chain(opts_.path, fingerprint, provider, &chain);
    if (info->load == LoadStatus::kOk) {
      info->resumed = restore(chain);
      if (!info->resumed) {
        // Validated but not reconstructible (section layout drift):
        // degrade to a fresh start, reported as corruption.
        payload_.reset();
        info->load = LoadStatus::kCorrupt;
      }
    }
    return info->resumed;
  }

  /// The hook core::explore saves through; nullptr when this run writes no
  /// checkpoints.
  const core::CheckpointHook* hook() {
    if (!writer_.has_value() || (!opts_.save_on_stop && opts_.interval == 0)) {
      return nullptr;
    }
    hook_.interval = opts_.interval;
    hook_.sink = [this](const core::SearchStats& s, const Entry& pending) {
      if (s.stop != common::StopReason::kCompleted && !opts_.save_on_stop) {
        return;
      }
      save(baseline_explored_ + s.states_explored - 1,
           baseline_transitions_ + s.transitions, &pending);
    };
    return &hook_;
  }

  /// Writes a base or a delta holding the store, the worklist plus
  /// `pending` (nullptr: none), the counters, the engine payload and
  /// `extra`. False when disarmed or the write failed.
  bool save(std::uint64_t explored, std::uint64_t transitions,
            const Entry* pending, std::optional<Section> extra = {}) {
    if (!writer_.has_value()) return false;
    const bool front =
        pending != nullptr && work_.order() == core::SearchOrder::kBfs;
    std::vector<Entry> cur;
    {
      const std::vector<Entry> body = work_.snapshot();
      cur.reserve(body.size() + 1);
      if (front) cur.push_back(*pending);
      cur.insert(cur.end(), body.begin(), body.end());
      if (pending != nullptr && !front) cur.push_back(*pending);
    }
    const bool base = writer_->want_base();
    const auto write_state = [](io::Writer& w, const store::ZonePool& p,
                                const typename Traits::Pooled& st) {
      StateCodec<S>::write(w, p, st);
    };
    std::vector<Section> secs;
    secs.reserve(5);
    {
      io::Writer w;
      if (base) {
        write_store(w, store_, write_state);
      } else {
        write_store_delta(w, store_, saved_states_, saved_journal_,
                          write_state);
      }
      secs.push_back(Section{base ? kSecStore : kSecStoreDelta, w.take()});
    }
    {
      io::Writer w;
      if (base) {
        write_worklist(w, work_.order(), cur);
      } else {
        write_worklist_delta(w, prev_entries_, cur);
      }
      secs.push_back(
          Section{base ? kSecWorklist : kSecWorklistDelta, w.take()});
    }
    {
      io::Writer w;
      w.u64(explored);
      w.u64(transitions);
      secs.push_back(Section{kSecSearchStats, w.take()});
    }
    {
      io::Writer w;
      payload_.encode(w, base, base ? 0 : saved_states_);
      secs.push_back(Section{kSecEnginePayload, w.take()});
    }
    if (extra.has_value()) secs.push_back(std::move(*extra));
    bool ok;
    if (base) {
      Snapshot snap;
      snap.sections = std::move(secs);
      ok = writer_->save_base(snap);
    } else {
      ok = writer_->save_delta_link(secs);
    }
    if (!ok) return false;
    saved_states_ = store_.size();
    saved_journal_ = store_.covered_journal().size();
    prev_entries_ = std::move(cur);
    payload_.mark_saved();
    if (info_ != nullptr) info_->saved = true;
    return true;
  }

  /// Adds the counters of the interrupted run to a resumed run's.
  void add_baseline(core::SearchStats& stats) const {
    stats.states_explored += static_cast<std::size_t>(baseline_explored_);
    stats.transitions += static_cast<std::size_t>(baseline_transitions_);
  }

 private:
  /// Replays the chain into raw (states, covered, entries) accumulators
  /// and the payload, then rebuilds the store and the worklist from them.
  bool restore(const Chain& chain) {
    std::vector<S> states;
    std::vector<std::uint8_t> covered;
    std::vector<Entry> entries;
    std::uint64_t journal_len = 0;  // covered flips so far
    std::uint64_t explored = 0;
    std::uint64_t transitions = 0;
    const auto read_state = [](io::Reader& r, S* out) {
      return StateCodec<S>::read(r, out);
    };
    const auto replay = [&](const std::vector<Section>& secs, bool base) {
      const Section* sec_store =
          find_section(secs, base ? kSecStore : kSecStoreDelta);
      const Section* sec_work =
          find_section(secs, base ? kSecWorklist : kSecWorklistDelta);
      const Section* sec_stats = find_section(secs, kSecSearchStats);
      const Section* sec_payload = find_section(secs, kSecEnginePayload);
      if (sec_store == nullptr || sec_work == nullptr ||
          sec_stats == nullptr || sec_payload == nullptr) {
        return false;
      }
      io::Reader rs(sec_store->payload);
      if (base) {
        if (!read_store_vectors<S>(rs, store_.options().inclusion,
                                   store_.options().tombstone_covered,
                                   read_state, &states, &covered)) {
          return false;
        }
        // The base's covered flips all predate its journal cut; deltas
        // validate their journal position against this running length.
        for (std::uint8_t c : covered) journal_len += c != 0 ? 1 : 0;
      } else if (!apply_store_delta<S>(rs, read_state, &states, &covered,
                                       &journal_len)) {
        return false;
      }
      io::Reader rw(sec_work->payload);
      if (base ? !read_worklist_entries(rw, work_.order(), &entries)
               : !apply_worklist_delta(rw, &entries)) {
        return false;
      }
      io::Reader rc(sec_stats->payload);
      explored = rc.u64();
      transitions = rc.u64();
      io::Reader rp(sec_payload->payload);
      return rc.ok() && payload_.decode(rp, base, states.size()) &&
             payload_.decode_extra(secs, states.size());
    };
    if (!replay(chain.base.sections, true)) return false;
    for (const Delta& d : chain.deltas) {
      if (!replay(d.sections, false)) return false;
    }
    store_ = Store::restore(store_.options(), std::move(states),
                            std::move(covered));
    work_.restore(std::move(entries));
    baseline_explored_ = explored;
    baseline_transitions_ = transitions;
    return true;
  }

  Store& store_;
  core::Worklist& work_;
  StorePayload& payload_;
  const Options& opts_;
  ResumeInfo* info_ = nullptr;
  std::optional<ChainWriter> writer_;
  core::CheckpointHook hook_;
  // Counters carried over from the interrupted run when resuming.
  std::uint64_t baseline_explored_ = 0;
  std::uint64_t baseline_transitions_ = 0;
  // Store, covered-journal and worklist positions of the last save.
  std::size_t saved_states_ = 0;
  std::size_t saved_journal_ = 0;
  std::vector<Entry> prev_entries_;
};

}  // namespace quanta::ckpt
