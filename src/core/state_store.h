// StateStore<S>: the interning substrate shared by all exploration engines.
//
// States are stored once, in insertion order, and addressed by dense int32
// ids — engines attach per-state payload (parents, successor lists, costs)
// as parallel vectors indexed by id. Lookup goes through an open-addressed
// hash table with one slot per distinct key hash.
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
// The two policies keep their passed lists differently. An exact slot heads
// a linked chain of the states with its key hash (chains are short: they
// only form on full-hash collisions). An inclusion slot owns a Group: a flat
// segment, in one array all groups share, of the LIVE states of one key hash
// in insertion order, each with an inline Traits::summary. Covered states leave the array the moment they are
// tombstoned, and the walk rejects most incomparable states on the summary
// alone, so a lookup neither revisits tombstones nor touches the pooled
// records of states it cannot relate to. Scan order among live states is
// insertion order, exactly as a chain walk that skips tombstones would see
// it, so every decision is the same.
//
// Pooled payload storage: when the traits opt in (core::PooledTraits — see
// traits.h), the store does not keep whole S objects. Each interned state is
// reduced to a compact Traits::Pooled record of store::Ref handles into a
// store::ZonePool that the store owns: identical DBM zones and discrete
// vectors across states collapse to one arena-allocated copy. The pool is
// resident-only and memory_bytes() counts it, so a budgeted search whose
// store outgrows its ceiling stops with kUnknown. Key hashes are still
// computed on the incoming S and comparisons go through the pooled trait
// overloads, which decide exactly like the unpooled ones — so insertion
// order, chain/group membership, scan order and the rehash trajectory are
// bit-identical to an unpooled store. state(id) materializes an S by value
// on demand.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "core/search.h"
#include "core/traits.h"
#include "store/pool.h"

namespace quanta::core {

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
  };

  struct Interned {
    std::int32_t id;
    bool inserted;  ///< false: deduplicated/subsumed by a stored state
  };

  explicit StateStore(Options opts = {}) : opts_(opts) {
    if constexpr (!Traits::kSupportsInclusion) {
      assert(!opts_.inclusion && "state type has no inclusion support");
    }
    slots_.assign(kInitialSlots, kEmpty);
  }

  /// Interns a state. Returns the id of the representative state: the new
  /// id if inserted, or the id of the stored state that deduplicates /
  /// subsumes `s` otherwise. A pooled store only reads `s` (it stores pool
  /// handles), so engines intern a reused scratch state by reference; an
  /// unpooled store copies it when inserted.
  Interned intern(const S& s) { return intern_impl(s); }
  Interned intern(S&& s) { return intern_impl(std::move(s)); }

  /// The state behind an id. Pooled stores materialize a fresh S by value
  /// (the pooled record holds only Refs); unpooled stores hand out the
  /// stored object itself.
  std::conditional_t<kPooled, S, const S&> state(std::int32_t id) const {
    if constexpr (kPooled) {
      S s;
      Traits::unpool(pool_, states_[toIdx(id)], s);
      return s;
    } else {
      return states_[toIdx(id)];
    }
  }

  /// Writes the state behind an id into `out`, reusing its buffers: the
  /// form for an engine that keeps one scratch state across expansions.
  void state_into(std::int32_t id, S& out) const {
    if constexpr (kPooled) {
      Traits::unpool(pool_, states_[toIdx(id)], out);
    } else {
      out = states_[toIdx(id)];
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
  /// interning bookkeeping (for inclusion stores one group Entry per stored
  /// state, covered ones included, and one Group per key hash), the hash
  /// table, the covered journal, a standing allowance for the transient
  /// head array a rehash allocates (so a rehash mid-intern cannot overshoot
  /// a Budget ceiling that was checked against this value), and — for
  /// pooled stores — the pool's resident arena and bookkeeping. Feeds the
  /// memory ceiling of common::Budget; maintained incrementally so reading
  /// it is cheap, and a function of the intern sequence alone, so a
  /// restored store reports what the original did.
  std::size_t memory_bytes() const {
    std::size_t n = bytes_ + slots_.capacity() * sizeof(std::int32_t) +
                    covered_journal_.capacity() * sizeof(std::int32_t) +
                    occupied_ * sizeof(std::int32_t);
    if (opts_.inclusion) n += occupied_ * sizeof(Group);
    if constexpr (kPooled) n += pool_.memory_bytes();
    return n;
  }

  const Options& options() const { return opts_; }

  /// The payload pool behind a pooled store (inert for unpooled traits).
  const store::ZonePool& zone_pool() const { return pool_; }

  /// Rebuilds a store from snapshot data (src/ckpt): the states in their
  /// original insertion order plus the covered/tombstone bits. The hash
  /// table is re-derived rather than persisted — chain/group membership and
  /// order depend only on (key hash, insertion order), and the rehash
  /// trajectory only on the sequence of distinct key hashes, so the rebuilt
  /// store is structurally identical to the one that was snapshotted and
  /// every subsequent intern() behaves bit-identically to the uninterrupted
  /// run. Covered states join no group's live segment, as they would have
  /// left it when tombstoned. Pooled stores re-intern every payload into a
  /// fresh pool here; the pool layout is a pure function of the intern
  /// sequence, so it too matches the pool the snapshotted store would have
  /// carried.
  static StateStore restore(Options opts, std::vector<S> states,
                            std::vector<std::uint8_t> covered) {
    assert(states.size() == covered.size());
    StateStore store(opts);
    const std::size_t n = states.size();
    store.states_.reserve(n);
    store.covered_.reserve(n);
    if (!opts.inclusion) {
      store.hashes_.reserve(n);
      store.next_.reserve(n);
      store.chain_len_.reserve(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::int32_t>(i);
      const std::size_t h = store.key_hash(states[i]);
      const InclusionSummary sum =
          opts.inclusion ? summary_of(states[i]) : InclusionSummary{};
      store.push_state(std::move(states[i]), h);
      const std::size_t slot = store.probe_slot(h);
      if (covered[i] != 0) store.mark_covered(id);
      if (opts.inclusion) {
        store.join_group(id, slot, h, sum, covered[i] == 0);
        continue;
      }
      std::int32_t tail = kEmpty;
      for (std::int32_t c = store.slots_[slot]; c != kEmpty;
           c = store.next_[toIdx(c)]) {
        tail = c;
      }
      store.link_state(id, slot, tail);
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

  /// Brute-force recomputation of max_chain: re-hashes every stored state
  /// and counts the states per key hash. metrics() reports the
  /// incrementally-maintained value instead; this exists so tests can pin
  /// the two against each other.
  std::size_t scan_max_chain() const {
    std::unordered_map<std::size_t, std::size_t> per_hash;
    std::size_t max_chain = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      const std::size_t n = ++per_hash[key_hash(state(static_cast<std::int32_t>(i)))];
      if (n > max_chain) max_chain = n;
    }
    return max_chain;
  }

  /// One live state in an inclusion Group: its id and Traits::summary.
  struct Entry {
    std::int32_t id;
    InclusionSummary summary;
  };
  static_assert(sizeof(Entry) == 16 && offsetof(Entry, summary) == 4);

  /// The passed list of one key hash in an inclusion store: its live states
  /// in insertion order, entries_[begin, begin + live), inside a segment of
  /// `capacity` entries; and how many states were ever interned under the
  /// hash (max_chain).
  struct Group {
    std::size_t hash;
    std::size_t begin = 0;
    std::uint32_t live = 0;
    std::uint32_t capacity = 0;
    std::uint32_t interned = 0;
  };

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kInitialSlots = 1u << 10;

  static std::size_t toIdx(std::int32_t id) {
    return static_cast<std::size_t>(id);
  }

  /// Bytes one interned record adds to the store: the in-place object, its
  /// traits-reported heap payload (unpooled only — pooled payload is owned
  /// and counted by the pool), covered_, and the policy's bookkeeping: one
  /// group Entry (inclusion) or the hashes_/next_/chain_len_ columns
  /// (exact).
  std::size_t stored_bytes(const Stored& st) const {
    std::size_t n = sizeof(Stored) + sizeof(std::uint8_t);
    n += opts_.inclusion ? sizeof(Entry)
                         : sizeof(std::size_t) + sizeof(std::int32_t) +
                               sizeof(std::uint32_t);
    if constexpr (requires { { Traits::memory_bytes(st) } -> std::convertible_to<std::size_t>; }) {
      n += Traits::memory_bytes(st);
    }
    return n;
  }

  // The summary prefilter compares one whole 16-byte Entry at a time, as a
  // vector of 16 signed bytes, against a probe Entry holding the incoming
  // summary; the id bytes are masked off. GCC/Clang vector extensions lower
  // this to the target's SIMD compares (one path on every target).
  using Bytes16 = std::int8_t __attribute__((vector_size(16)));
  using Words2 = std::uint64_t __attribute__((vector_size(16)));
  static constexpr Bytes16 kSummaryBytes = {0,  0,  0,  0,  -1, -1, -1, -1,
                                            -1, -1, -1, -1, -1, -1, -1, -1};

  static Bytes16 bytes_of(const Entry& e) {
    Bytes16 v;
    std::memcpy(&v, &e, sizeof v);
    return v;
  }

  /// True when neither summary is bytewise <= the other. For summaries that
  /// honour the StateTraits::summary contract this proves the two states'
  /// continuous parts incomparable, so compare() would return kNone.
  static bool summaries_incomparable(const Entry& e, const Bytes16& probe) {
    const Bytes16 v = bytes_of(e);
    const auto lt = (Words2)((v < probe) & kSummaryBytes);
    const auto gt = (Words2)((v > probe) & kSummaryBytes);
    return (lt[0] | lt[1]) != 0 && (gt[0] | gt[1]) != 0;
  }

  static InclusionSummary summary_of(const S& s) {
    if constexpr (requires { { Traits::summary(s) } -> std::same_as<InclusionSummary>; }) {
      return Traits::summary(s);
    }
    return {};
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

  template <typename T>
  Interned intern_impl(T&& s) {
    common::FaultInjector::site("core.state_store.intern");
    const std::size_t h = key_hash(s);
    const std::size_t slot = probe_slot(h);
    if constexpr (Traits::kSupportsInclusion) {
      if (opts_.inclusion) return intern_inclusion(std::forward<T>(s), h, slot);
    }
    std::int32_t tail = kEmpty;
    for (std::int32_t id = slots_[slot]; id != kEmpty; id = next_[toIdx(id)]) {
      tail = id;
      if (stored_equal(states_[toIdx(id)], s)) return {id, false};
    }
    const std::int32_t id = static_cast<std::int32_t>(states_.size());
    push_state(std::forward<T>(s), h);
    link_state(id, slot, tail);
    return {id, true};
  }

  /// The inclusion lookup: walks the live states of the key hash, oldest
  /// first — the scan order determines which stored zone subsumes first, so
  /// keep it deterministic and identical to the historical per-engine
  /// buckets. A state whose summary is incomparable with the incoming one
  /// is passed without touching its record; a state the incoming one
  /// strictly covers is tombstoned and dropped from the array, which is
  /// compacted in place as the walk goes.
  template <typename T>
  Interned intern_inclusion(T&& s, std::size_t h, std::size_t slot) {
    const InclusionSummary sum = summary_of(s);
    if (slots_[slot] != kEmpty) {
      Group& g = groups_[toIdx(slots_[slot])];
      Entry* live = entries_.data() + g.begin;
      const Bytes16 probe = bytes_of(Entry{0, sum});
      std::uint32_t keep = 0;
      for (std::uint32_t i = 0; i < g.live; ++i) {
        const Entry e = live[i];
        if (!summaries_incomparable(e, probe) &&
            stored_same_partition(states_[toIdx(e.id)], s)) {
          switch (stored_compare(states_[toIdx(e.id)], s)) {
            case Subsumes::kStored:
              // Close the gap that dropped entries left before this one.
              std::memmove(live + keep, live + i, (g.live - i) * sizeof(Entry));
              g.live -= i - keep;
              return {e.id, false};
            case Subsumes::kIncoming:
              if (opts_.tombstone_covered) {
                mark_covered(e.id);
                continue;
              }
              break;
            case Subsumes::kNone:
              break;
          }
        }
        live[keep++] = e;
      }
      g.live = keep;
    }
    const std::int32_t id = static_cast<std::int32_t>(states_.size());
    push_state(std::forward<T>(s), h);
    join_group(id, slot, h, sum, true);
    return {id, true};
  }

  void mark_covered(std::int32_t id) {
    covered_[toIdx(id)] = 1;
    ++covered_count_;
    covered_journal_.push_back(id);
  }

  /// Appends the state record and its per-state columns (not yet linked
  /// into any chain or group).
  template <typename T>
  void push_state(T&& s, std::size_t h) {
    if constexpr (kPooled) {
      states_.push_back(Traits::pool(pool_, s));
    } else {
      states_.push_back(std::forward<T>(s));
    }
    bytes_ += stored_bytes(states_.back());
    covered_.push_back(0);
    if (!opts_.inclusion) {
      hashes_.push_back(h);
      next_.push_back(kEmpty);
      chain_len_.push_back(0);
    }
  }

  /// Counts a freshly pushed state into the group of its key hash (opening
  /// the group if the slot is empty) and, if `live`, appends its entry.
  void join_group(std::int32_t id, std::size_t slot, std::size_t h,
                  const InclusionSummary& sum, bool live) {
    const bool opened = slots_[slot] == kEmpty;
    if (opened) {
      slots_[slot] = static_cast<std::int32_t>(groups_.size());
      groups_.push_back(Group{.hash = h});
    }
    Group& g = groups_[toIdx(slots_[slot])];
    if (live) {
      if (g.live == g.capacity) grow(g);
      entries_[g.begin + g.live++] = Entry{id, sum};
    }
    if (++g.interned > max_chain_) max_chain_ = g.interned;
    if (opened) {
      ++occupied_;
      if (occupied_ * 2 >= slots_.size()) rehash(slots_.size() * 2);
    }
  }

  /// Makes room for one more entry in a full group: its segment doubles,
  /// in place when it ends entries_, otherwise by moving to the end. A move
  /// appends twice the slots it abandons, so abandoned slots stay under
  /// half of entries_ and need no compaction. All groups share this one
  /// array, so the passed lists cost one allocation, not one per key hash
  /// (thousands of small ones fragment the heap the engines share).
  void grow(Group& g) {
    const std::uint32_t capacity = g.capacity == 0 ? 2 : 2 * g.capacity;
    if (g.begin + g.capacity == entries_.size()) {
      entries_.resize(g.begin + capacity);
    } else {
      const std::size_t begin = entries_.size();
      entries_.resize(begin + capacity);
      std::copy_n(entries_.begin() + g.begin, g.live, entries_.begin() + begin);
      g.begin = begin;
    }
    g.capacity = capacity;
  }

  /// Links a freshly pushed state into its exact chain: appended after
  /// `tail`, or installed as the head of a new chain. Chain lengths are
  /// maintained at the head's index — chains only ever grow and heads never
  /// change, so max_chain_ is a cheap monotone maximum.
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

  /// The key hash behind an occupied slot: its group's, or its chain
  /// head's.
  std::size_t slot_hash(std::int32_t occupant) const {
    return opts_.inclusion ? groups_[toIdx(occupant)].hash
                           : hashes_[toIdx(occupant)];
  }

  /// Linear probing; returns the slot holding the chain for `h`, or the
  /// first empty slot of its probe sequence.
  std::size_t probe_slot(std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i] != kEmpty && slot_hash(slots_[i]) != h) {
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
      std::size_t i = slot_hash(head) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = head;
    }
  }

  Options opts_;
  store::ZonePool pool_;  ///< payload pool; inert when !kPooled
  std::vector<Stored> states_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::int32_t> covered_journal_;  ///< tombstones in flip order
  // Exact stores: per-state chain columns.
  std::vector<std::size_t> hashes_;   ///< key hash per state
  std::vector<std::int32_t> next_;    ///< same-hash chain links
  std::vector<std::uint32_t> chain_len_;  ///< chain length, kept at head ids
  // Inclusion stores: one group per key hash, their segments in entries_.
  std::vector<Group> groups_;
  std::vector<Entry> entries_;
  /// Open-addressed table: chain head ids (exact) or group indices
  /// (inclusion).
  std::vector<std::int32_t> slots_;
  std::size_t occupied_ = 0;
  std::size_t covered_count_ = 0;
  std::size_t max_chain_ = 0;  ///< most states under one key hash, ever
  std::size_t bytes_ = 0;  ///< accumulated per-state bytes (see stored_bytes)
};

}  // namespace quanta::core
