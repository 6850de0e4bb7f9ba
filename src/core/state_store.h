// StateStore<S>: the interning substrate shared by all exploration engines.
//
// States are stored once, in insertion order, and addressed by dense int32
// ids — engines attach per-state payload (parents, successor lists, costs)
// as parallel vectors indexed by id. Lookup goes through an open-addressed
// hash table whose slots point at chains of states with equal key hash.
//
// Two dedup policies, selected per store at construction:
//   * exact      — full-state hash/equality (liveness zone graph, digital
//                  engines, BIP, ECDAR pairs);
//   * inclusion  — states are bucketed by their discrete partition and the
//                  continuous parts are compared by set inclusion: an
//                  incoming state covered by a stored one is dropped, and
//                  (optionally) a stored state strictly covered by the
//                  incoming one is tombstoned ("covered") so the search can
//                  skip it. This is UPPAAL-style zone-inclusion subsumption,
//                  available to every engine whose StateTraits support it.
//
// Pooled payload storage: when the traits opt in (core::PooledTraits — see
// traits.h), the store does not keep whole S objects. Each interned state is
// reduced to a compact Traits::Pooled record of store::Ref handles into a
// store::ZonePool that the store owns: identical DBM zones and discrete
// vectors across states collapse to one arena-allocated copy, and the pool
// can evict cold payload to a spill file under a memory ceiling
// (QUANTA_STORE_MEM / QUANTA_STORE_SPILL, or Options::pool). Key hashes are
// still computed on the incoming S and comparisons go through the pooled
// trait overloads, which decide exactly like the unpooled ones — so
// insertion order, chain membership, chain scan order and the rehash
// trajectory are bit-identical to an unpooled store. state(id) materializes
// an S by value on demand.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/traits.h"
#include "store/pool.h"

namespace quanta::core {

/// Occupancy snapshot of a store, for instrumentation (ExplorationObserver).
struct StoreMetrics {
  std::size_t stored = 0;     ///< interned states, including covered ones
  std::size_t covered = 0;    ///< tombstoned (subsumed) states
  std::size_t slots = 0;      ///< hash-table capacity
  std::size_t occupied = 0;   ///< slots in use (= distinct key hashes)
  std::size_t max_chain = 0;  ///< longest same-hash chain
  std::size_t memory_bytes = 0;  ///< StateStore::memory_bytes() at snapshot
  store::PoolMetrics pool{};  ///< payload-pool snapshot (zero when unpooled)

  double load_factor() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(occupied) / static_cast<double>(slots);
  }
};

namespace detail {
/// Lazily resolves the in-store record type: Traits::Pooled when the traits
/// opt into pooling, the state type itself otherwise. (A plain conditional_t
/// would name Traits::Pooled even for traits that lack it.)
template <typename S, typename Traits, bool = PooledTraits<Traits>>
struct StoredOf {
  using type = S;
};
template <typename S, typename Traits>
struct StoredOf<S, Traits, true> {
  using type = typename Traits::Pooled;
};
}  // namespace detail

template <typename S, typename Traits = StateTraits<S>>
class StateStore {
 public:
  /// True when states are kept as interned Traits::Pooled records.
  static constexpr bool kPooled = PooledTraits<Traits>;
  /// What states_ actually holds.
  using Stored = typename detail::StoredOf<S, Traits>::type;

  struct Options {
    /// Dedup by partition + inclusion instead of full-state equality.
    /// Requires Traits::kSupportsInclusion.
    bool inclusion = false;
    /// With inclusion: tombstone stored states strictly covered by a new
    /// one. Turning this off (ablation A1) keeps dominated states live.
    bool tombstone_covered = true;
    /// Pooled stores only: explicit payload-pool configuration. Unset reads
    /// the QUANTA_STORE_MEM / QUANTA_STORE_SPILL environment knobs.
    std::optional<store::PoolConfig> pool = std::nullopt;
  };

  struct Interned {
    std::int32_t id;
    bool inserted;  ///< false: deduplicated/subsumed by a stored state
  };

  explicit StateStore(Options opts = {})
      : opts_(opts), pool_(make_pool_config(opts)) {
    if constexpr (!Traits::kSupportsInclusion) {
      assert(!opts_.inclusion && "state type has no inclusion support");
    }
    slots_.assign(kInitialSlots, kEmpty);
  }

  /// Interns a state. Returns the id of the representative state: the new
  /// id if inserted, or the id of the stored state that deduplicates /
  /// subsumes `s` otherwise.
  Interned intern(S s) {
    common::FaultInjector::site("core.state_store.intern");
    const std::size_t h = key_hash(s);
    std::size_t slot = probe_slot(h);
    std::int32_t tail = kEmpty;
    if (slots_[slot] != kEmpty) {
      // Walk the chain of states with this key hash, oldest first — the
      // scan order determines which stored zone subsumes first, so keep it
      // deterministic and identical to the historical per-engine buckets.
      for (std::int32_t id = slots_[slot]; id != kEmpty; id = next_[toIdx(id)]) {
        tail = id;
        if (opts_.inclusion) {
          if constexpr (Traits::kSupportsInclusion) {
            if (covered_[toIdx(id)] ||
                !stored_same_partition(states_[toIdx(id)], s)) {
              continue;
            }
            switch (stored_compare(states_[toIdx(id)], s)) {
              case Subsumes::kStored:
                return {id, false};
              case Subsumes::kIncoming:
                if (opts_.tombstone_covered) {
                  covered_[toIdx(id)] = 1;
                  ++covered_count_;
                  covered_journal_.push_back(id);
                }
                break;
              case Subsumes::kNone:
                break;
            }
          }
        } else {
          if (stored_equal(states_[toIdx(id)], s)) return {id, false};
        }
      }
    }
    const std::int32_t id = static_cast<std::int32_t>(states_.size());
    push_state(std::move(s), h);
    link_state(id, slot, tail);
    return {id, true};
  }

  /// The state behind an id. Pooled stores materialize a fresh S by value
  /// (the pooled record holds only Refs); unpooled stores hand out the
  /// stored object itself.
  std::conditional_t<kPooled, S, const S&> state(std::int32_t id) const {
    if constexpr (kPooled) {
      return Traits::unpool(pool_, states_[toIdx(id)]);
    } else {
      return states_[toIdx(id)];
    }
  }

  /// The record the store keeps for an id: the Traits::Pooled handles of a
  /// pooled store (resolved through zone_pool()), the state itself
  /// otherwise. Lets the checkpoint codec encode a state without
  /// materializing it.
  const Stored& stored(std::int32_t id) const { return states_[toIdx(id)]; }

  bool covered(std::int32_t id) const { return covered_[toIdx(id)] != 0; }

  /// Ids tombstoned so far, in the order their covered bit flipped. States
  /// are append-only and covered bits only ever flip 0 -> 1, so (appended
  /// states, journal suffix) is a complete diff between two points in time —
  /// the basis of incremental delta snapshots (src/ckpt/delta.h). A restored
  /// store lists its already-covered ids in index order; only the suffix
  /// beyond a remembered position is ever re-serialized.
  const std::vector<std::int32_t>& covered_journal() const {
    return covered_journal_;
  }

  /// Number of interned states (covered tombstones included).
  std::size_t size() const { return states_.size(); }

  /// Approximate bytes held by the store: per-state payload plus the
  /// interning bookkeeping, the hash table, the covered journal, a standing
  /// allowance for the transient head array a rehash allocates (so a rehash
  /// mid-intern cannot overshoot a Budget ceiling that was checked against
  /// this value), and — for pooled stores — the pool's resident arena and
  /// bookkeeping. Feeds the memory ceiling of common::Budget; maintained
  /// incrementally so reading it is cheap.
  std::size_t memory_bytes() const {
    std::size_t n = bytes_ + slots_.capacity() * sizeof(std::int32_t) +
                    covered_journal_.capacity() * sizeof(std::int32_t) +
                    occupied_ * sizeof(std::int32_t);
    if constexpr (kPooled) n += pool_.memory_bytes();
    return n;
  }

  const Options& options() const { return opts_; }

  /// The payload pool behind a pooled store (inert for unpooled traits).
  const store::ZonePool& zone_pool() const { return pool_; }

  /// Rebuilds a store from snapshot data (src/ckpt): the states in their
  /// original insertion order plus the covered/tombstone bits. The hash
  /// table is re-derived rather than persisted — chain membership and order
  /// depend only on (key hash, insertion order), and the rehash trajectory
  /// only on the sequence of distinct key hashes, so the rebuilt store is
  /// structurally identical to the one that was snapshotted and every
  /// subsequent intern() behaves bit-identically to the uninterrupted run.
  /// Pooled stores re-intern every payload into a fresh pool here; the pool
  /// layout is a pure function of the intern sequence, so it too matches the
  /// pool the snapshotted store would have carried.
  static StateStore restore(Options opts, std::vector<S> states,
                            std::vector<std::uint8_t> covered) {
    assert(states.size() == covered.size());
    StateStore store(opts);
    const std::size_t n = states.size();
    store.states_.reserve(n);
    store.hashes_.reserve(n);
    store.next_.reserve(n);
    store.covered_.reserve(n);
    store.chain_len_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t h = store.key_hash(states[i]);
      store.push_state(std::move(states[i]), h);
      if (covered[i] != 0) {
        store.covered_[i] = 1;
        ++store.covered_count_;
        store.covered_journal_.push_back(static_cast<std::int32_t>(i));
      }
      const std::size_t slot = store.probe_slot(h);
      std::int32_t tail = kEmpty;
      for (std::int32_t id = store.slots_[slot]; id != kEmpty;
           id = store.next_[toIdx(id)]) {
        tail = id;
      }
      store.link_state(static_cast<std::int32_t>(i), slot, tail);
    }
    return store;
  }

  StoreMetrics metrics() const {
    StoreMetrics m;
    m.stored = states_.size();
    m.covered = covered_count_;
    m.slots = slots_.size();
    m.occupied = occupied_;
    m.max_chain = max_chain_;
    m.memory_bytes = memory_bytes();
    if constexpr (kPooled) m.pool = pool_.metrics();
    return m;
  }

  /// Brute-force recomputation of the longest same-hash chain, walking every
  /// chain from its head. metrics() reports the incrementally-maintained
  /// value instead; this exists so tests can pin the two against each other.
  std::size_t scan_max_chain() const {
    std::size_t max_chain = 0;
    for (std::int32_t head : slots_) {
      if (head == kEmpty) continue;
      std::size_t chain = 0;
      for (std::int32_t id = head; id != kEmpty; id = next_[toIdx(id)]) ++chain;
      if (chain > max_chain) max_chain = chain;
    }
    return max_chain;
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kInitialSlots = 1u << 10;

  static std::size_t toIdx(std::int32_t id) {
    return static_cast<std::size_t>(id);
  }

  static store::PoolConfig make_pool_config(const Options& o) {
    if constexpr (kPooled) {
      return o.pool ? *o.pool : store::pool_config_from_env();
    }
    return {};
  }

  /// Bytes one interned record adds to the store: the in-place object, its
  /// traits-reported heap payload (unpooled only — pooled payload is owned
  /// and counted by the pool), and the per-state bookkeeping columns
  /// (hashes_, next_, covered_, chain_len_).
  static std::size_t stored_bytes(const Stored& st) {
    std::size_t n = sizeof(Stored) + sizeof(std::size_t) +
                    sizeof(std::int32_t) + sizeof(std::uint8_t) +
                    sizeof(std::uint32_t);
    if constexpr (requires { { Traits::memory_bytes(st) } -> std::convertible_to<std::size_t>; }) {
      n += Traits::memory_bytes(st);
    }
    return n;
  }

  std::size_t key_hash(const S& s) const {
    if constexpr (Traits::kSupportsInclusion) {
      if (opts_.inclusion) return Traits::partition_hash(s);
    }
    return Traits::hash(s);
  }

  // Comparison dispatch: pooled traits compare their stored record against
  // the incoming state through the pool (zone views, no materialization);
  // unpooled traits compare states directly.
  bool stored_equal(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::equal(pool_, st, s);
    } else {
      return Traits::equal(st, s);
    }
  }
  bool stored_same_partition(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::same_partition(pool_, st, s);
    } else {
      return Traits::same_partition(st, s);
    }
  }
  Subsumes stored_compare(const Stored& st, const S& s) const {
    if constexpr (kPooled) {
      return Traits::compare(pool_, st, s);
    } else {
      return Traits::compare(st, s);
    }
  }

  /// Appends the state record and its bookkeeping columns (not yet linked
  /// into any chain).
  void push_state(S&& s, std::size_t h) {
    if constexpr (kPooled) {
      states_.push_back(Traits::pool(pool_, s));
    } else {
      states_.push_back(std::move(s));
    }
    bytes_ += stored_bytes(states_.back());
    hashes_.push_back(h);
    next_.push_back(kEmpty);
    covered_.push_back(0);
    chain_len_.push_back(0);
  }

  /// Links a freshly pushed state into its chain: appended after `tail`, or
  /// installed as the head of a new chain. Chain lengths are maintained at
  /// the head's index — chains only ever grow and heads never change, so
  /// max_chain_ is a cheap monotone maximum.
  void link_state(std::int32_t id, std::size_t slot, std::int32_t tail) {
    if (tail != kEmpty) {
      next_[toIdx(tail)] = id;
      const std::uint32_t len = ++chain_len_[toIdx(slots_[slot])];
      if (len > max_chain_) max_chain_ = len;
    } else {
      chain_len_[toIdx(id)] = 1;
      if (max_chain_ == 0) max_chain_ = 1;
      slots_[slot] = id;
      ++occupied_;
      if (occupied_ * 2 >= slots_.size()) rehash(slots_.size() * 2);
    }
  }

  /// Linear probing; returns the slot holding the chain for `h`, or the
  /// first empty slot of its probe sequence.
  std::size_t probe_slot(std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i] != kEmpty && hashes_[toIdx(slots_[i])] != h) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::int32_t> heads;
    heads.reserve(occupied_);
    for (std::int32_t head : slots_) {
      if (head != kEmpty) heads.push_back(head);
    }
    slots_.assign(new_slots, kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::int32_t head : heads) {
      std::size_t i = hashes_[toIdx(head)] & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = head;
    }
  }

  Options opts_;
  store::ZonePool pool_;  ///< payload pool; inert when !kPooled
  std::vector<Stored> states_;
  std::vector<std::size_t> hashes_;   ///< key hash per state
  std::vector<std::int32_t> next_;    ///< same-hash chain links
  std::vector<std::uint8_t> covered_;
  std::vector<std::int32_t> covered_journal_;  ///< tombstones in flip order
  std::vector<std::uint32_t> chain_len_;  ///< chain length, kept at head ids
  std::vector<std::int32_t> slots_;   ///< open-addressed table of chain heads
  std::size_t occupied_ = 0;
  std::size_t covered_count_ = 0;
  std::size_t max_chain_ = 0;  ///< longest chain ever (chains never shrink)
  std::size_t bytes_ = 0;  ///< accumulated per-state bytes (see stored_bytes)
};

}  // namespace quanta::core
