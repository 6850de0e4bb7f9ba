// Section codecs of the shared exploration core: a core::StateStore (with
// covered/tombstone bits) and a core::Worklist, whole for a base record and
// as a diff against the previous save for a delta record. The store section
// persists states in insertion order only — StateStore::restore re-derives
// the hash table deterministically, so the resumed search is bit-identical
// to the uninterrupted one. The driver that writes and replays these
// sections for the four store engines is StoreChain (ckpt/store_chain.h).
//
// States go through the StateCodec of their type: a write that encodes one
// pooled store record from the store's ZonePool, and a read that decodes a
// plain state. ckpt/snapshot_ta.h provides the zone-state and digital-state
// codecs.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "core/state_store.h"
#include "core/worklist.h"

namespace quanta::ckpt {

/// Section ids of a store-engine record. Engine payload (parents, moves,
/// costs, ...) rides in kSecEnginePayload, opaque to this layer.
inline constexpr std::uint32_t kSecStore = 1;
inline constexpr std::uint32_t kSecWorklist = 2;
inline constexpr std::uint32_t kSecSearchStats = 3;
inline constexpr std::uint32_t kSecEnginePayload = 4;

/// Delta-record sections (src/ckpt/delta.h). A delta record carries the
/// store/worklist *changes* since the previous chain link plus full rewrites
/// of the small sections (stats, engine payload suffix inside
/// kSecEnginePayload with an engine-chosen base-count prefix).
inline constexpr std::uint32_t kSecStoreDelta = 11;
inline constexpr std::uint32_t kSecWorklistDelta = 12;

/// The state codec of a store's state type: static write(io::Writer&,
/// const store::ZonePool&, const pooled record&) and read(io::Reader&, S*).
/// ckpt/snapshot_ta.h specializes it for the zone and digital states.
template <typename S>
struct StateCodec;

/// Appends states [first, last) of a pooled store, each encoded straight
/// from its pooled record: no state is materialized to be saved. The buffer
/// is sized once, from the first state (the states of one store share their
/// vector lengths in practice), with a byte per state and some slack for
/// what the caller writes next, so it never regrows mid-store.
template <typename S, typename Traits, typename WriteState>
void write_store_states(io::Writer& w, const core::StateStore<S, Traits>& store,
                        std::size_t first, std::size_t last,
                        WriteState&& write_state) {
  static_assert(core::StateStore<S, Traits>::kPooled,
                "the state codec encodes pooled store records");
  const std::size_t start = w.size();
  for (std::size_t id = first; id < last; ++id) {
    write_state(w, store.zone_pool(),
                store.stored(static_cast<std::int32_t>(id)));
    if (id == first) {
      w.reserve(start + (w.size() - start + 1) * (last - first) + 64);
    }
  }
}

template <typename S, typename Traits, typename WriteState>
void write_store(io::Writer& w, const core::StateStore<S, Traits>& store,
                 WriteState&& write_state) {
  w.u8(store.options().inclusion ? 1 : 0);
  w.u8(store.options().tombstone_covered ? 1 : 0);
  const std::size_t n = store.size();
  w.u64(n);
  write_store_states(w, store, 0, n, write_state);
  for (std::size_t id = 0; id < n; ++id) {
    w.u8(store.covered(static_cast<std::int32_t>(id)) ? 1 : 0);
  }
}

/// Reads a write_store section into raw (states, covered) vectors — the
/// accumulator a delta chain replays into before the final
/// StateStore::restore. Returns false on option mismatch or malformed data.
template <typename S, typename ReadState>
bool read_store_vectors(io::Reader& r, bool inclusion, bool tombstone_covered,
                        ReadState&& read_state, std::vector<S>* states,
                        std::vector<std::uint8_t>* covered) {
  const bool file_inclusion = r.u8() != 0;
  const bool file_tombstone = r.u8() != 0;
  if (file_inclusion != inclusion || file_tombstone != tombstone_covered) {
    return false;
  }
  const std::uint64_t n = r.u64();
  if (!r.ok() || !r.fits(n, 1)) return false;
  states->clear();
  states->reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    S s;
    if (!read_state(r, &s)) return false;
    states->push_back(std::move(s));
  }
  covered->assign(static_cast<std::size_t>(n), 0);
  for (std::uint64_t i = 0; i < n; ++i) (*covered)[i] = r.u8();
  return r.ok();
}

/// Store changes since the previous chain link: the states appended beyond
/// `base_states` and the covered-journal suffix beyond `base_journal`.
/// States are append-only and covered bits only flip 0 -> 1, so this is a
/// complete diff (StateStore::covered_journal).
template <typename S, typename Traits, typename WriteState>
void write_store_delta(io::Writer& w, const core::StateStore<S, Traits>& store,
                       std::size_t base_states, std::size_t base_journal,
                       WriteState&& write_state) {
  const std::size_t n = store.size();
  const std::vector<std::int32_t>& journal = store.covered_journal();
  w.u64(base_states);
  w.u64(n - base_states);
  write_store_states(w, store, base_states, n, write_state);
  w.u64(base_journal);
  w.u64(journal.size() - base_journal);
  w.i32s(std::span<const std::int32_t>(journal).subspan(base_journal));
}

/// Applies one write_store_delta record to the (states, covered) accumulator.
/// `journal_len` tracks the covered-flip count across the chain; both base
/// positions are validated against it so a delta never applies out of order.
template <typename S, typename ReadState>
bool apply_store_delta(io::Reader& r, ReadState&& read_state,
                       std::vector<S>* states,
                       std::vector<std::uint8_t>* covered,
                       std::uint64_t* journal_len) {
  const std::uint64_t base_states = r.u64();
  if (!r.ok() || base_states != states->size()) return false;
  const std::uint64_t appended = r.u64();
  if (!r.ok() || !r.fits(appended, 1)) return false;
  for (std::uint64_t i = 0; i < appended; ++i) {
    S s;
    if (!read_state(r, &s)) return false;
    states->push_back(std::move(s));
    covered->push_back(0);
  }
  const std::uint64_t base_journal = r.u64();
  if (!r.ok() || base_journal != *journal_len) return false;
  const std::uint64_t flips = r.u64();
  if (!r.ok() || !r.fits(flips, 4)) return false;
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::int32_t id = r.i32();
    if (id < 0 || static_cast<std::size_t>(id) >= covered->size()) return false;
    (*covered)[static_cast<std::size_t>(id)] = 1;
  }
  *journal_len += flips;
  return r.ok();
}

/// Serializes a worklist's entries in pop order — the caller has already
/// put an interrupted search's pending entry where the order pops next. A
/// kPriority restore adopts the heap array verbatim and sifts a single
/// trailing entry into place, keeping delta chains byte-stable.
inline void write_worklist(io::Writer& w, core::SearchOrder order,
                           const std::vector<core::Worklist::Entry>& entries) {
  w.u8(static_cast<std::uint8_t>(order));
  w.u64(entries.size());
  for (const core::Worklist::Entry& e : entries) {
    w.i32(e.id);
    w.i64(e.key);
  }
}

/// Worklist changes since the previous link, as a splice against the
/// previously serialized entry list: cur == prev[drop .. drop+keep) ++
/// appended. The matcher finds the first occurrence of cur's head in prev
/// and extends the common run — BFS turns into "drop the popped front, keep
/// the rest", DFS into "keep the untouched prefix", and a priority heap into
/// a moderate splice; any mismatch just lands in `appended`, so the encoding
/// is always exact. `prev` and `cur` are the caller-built full entry lists
/// (pending entry already positioned, as for write_worklist).
inline void write_worklist_delta(io::Writer& w,
                                 const std::vector<core::Worklist::Entry>& prev,
                                 const std::vector<core::Worklist::Entry>& cur) {
  std::size_t drop = 0;
  std::size_t keep = 0;
  if (!cur.empty()) {
    for (std::size_t i = 0; i < prev.size(); ++i) {
      if (prev[i].id == cur[0].id && prev[i].key == cur[0].key) {
        std::size_t k = 0;
        while (i + k < prev.size() && k < cur.size() &&
               prev[i + k].id == cur[k].id && prev[i + k].key == cur[k].key) {
          ++k;
        }
        drop = i;
        keep = k;
        break;
      }
    }
  }
  w.u64(drop);
  w.u64(keep);
  w.u64(cur.size() - keep);
  for (std::size_t i = keep; i < cur.size(); ++i) {
    w.i32(cur[i].id);
    w.i64(cur[i].key);
  }
}

/// Applies one write_worklist_delta record to the entry-list accumulator.
inline bool apply_worklist_delta(io::Reader& r,
                                 std::vector<core::Worklist::Entry>* entries) {
  const std::uint64_t drop = r.u64();
  const std::uint64_t keep = r.u64();
  if (!r.ok() || drop + keep < keep || drop + keep > entries->size()) {
    return false;
  }
  entries->erase(entries->begin(),
                 entries->begin() + static_cast<std::ptrdiff_t>(drop));
  entries->resize(static_cast<std::size_t>(keep));
  const std::uint64_t appended = r.u64();
  if (!r.ok() || !r.fits(appended, 4 + 8)) return false;
  entries->reserve(entries->size() + static_cast<std::size_t>(appended));
  for (std::uint64_t i = 0; i < appended; ++i) {
    core::Worklist::Entry e;
    e.id = r.i32();
    e.key = r.i64();
    entries->push_back(e);
  }
  return r.ok();
}

/// Reads a write_worklist section into a raw entry list — the accumulator a
/// delta chain splices into before the final Worklist::restore.
inline bool read_worklist_entries(io::Reader& r, core::SearchOrder order,
                                  std::vector<core::Worklist::Entry>* out) {
  const std::uint8_t file_order = r.u8();
  if (file_order != static_cast<std::uint8_t>(order)) return false;
  const std::uint64_t count = r.u64();
  if (!r.ok() || !r.fits(count, 4 + 8)) return false;
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    core::Worklist::Entry e;
    e.id = r.i32();
    e.key = r.i64();
    out->push_back(e);
  }
  return r.ok();
}

}  // namespace quanta::ckpt
