// Tests for the shared exploration core (src/core): StateStore dedup and
// zone-inclusion subsumption with covered-node tombstoning (also against a
// linear-scan reference on random zone sequences), Worklist search
// orders, uniform truncation semantics, and the store metrics every search
// returns in SearchStats.
#include "core/state_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/worklist.h"
#include "cora/priced.h"
#include "game/tiga.h"
#include "mc/liveness.h"
#include "mc/reachability.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "ta/traits.h"

namespace {

using namespace quanta;
using core::SearchOrder;
using core::StateStore;
using core::Worklist;

/// A one-clock symbolic state 0 <= x <= ub in discrete partition `loc`.
ta::SymState zone_state(int loc, int ub) {
  ta::SymState s;
  s.locs = {loc};
  s.zone = dbm::Dbm::universal(2);
  EXPECT_TRUE(s.zone.constrain_le(1, 0, ub));
  return s;
}

using SymStore = StateStore<ta::SymState>;

TEST(StateStore, ExactModeDistinguishesZones) {
  SymStore store;  // default: exact full-state equality
  EXPECT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // A strictly included zone is a *different* state under exact equality.
  auto b = store.intern(zone_state(0, 3));
  EXPECT_TRUE(b.inserted);
  EXPECT_EQ(b.id, 1);
  // Re-inserting an equal state dedups to the original id.
  auto again = store.intern(zone_state(0, 5));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 0);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, InclusionDropsCoveredIncomingState) {
  SymStore store({.inclusion = true});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // x <= 3 is inside x <= 5: subsumed, no new state.
  auto b = store.intern(zone_state(0, 3));
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(b.id, 0);
  EXPECT_EQ(store.size(), 1u);
  // An equal zone is subsumed too.
  EXPECT_FALSE(store.intern(zone_state(0, 5)).inserted);
}

TEST(StateStore, InclusionTombstonesStrictlyCoveredStoredState) {
  SymStore store({.inclusion = true, .tombstone_covered = true});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  // x <= 8 strictly covers the stored x <= 5: the old node is tombstoned
  // and the larger zone becomes the live representative.
  auto c = store.intern(zone_state(0, 8));
  EXPECT_TRUE(c.inserted);
  EXPECT_EQ(c.id, 1);
  EXPECT_TRUE(store.covered(0));
  EXPECT_FALSE(store.covered(1));
  EXPECT_EQ(store.metrics().covered, 1u);

  // Re-inserting the previously covered zone dedups against the live
  // coverer — tombstoned nodes are skipped, the state is NOT resurrected.
  auto again = store.intern(zone_state(0, 5));
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, 1);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, TombstoningOffKeepsDominatedStatesLive) {
  // Ablation A1: inclusion dedup of incoming states still applies, but
  // stored states are never marked covered.
  SymStore store({.inclusion = true, .tombstone_covered = false});
  ASSERT_TRUE(store.intern(zone_state(0, 5)).inserted);
  auto c = store.intern(zone_state(0, 8));
  EXPECT_TRUE(c.inserted);
  EXPECT_FALSE(store.covered(0));
  EXPECT_EQ(store.metrics().covered, 0u);
  // Covered *incoming* states are still dropped.
  EXPECT_FALSE(store.intern(zone_state(0, 3)).inserted);
}

TEST(StateStore, InclusionComparesOnlyWithinDiscretePartition) {
  SymStore store({.inclusion = true});
  ASSERT_TRUE(store.intern(zone_state(0, 3)).inserted);
  // Same zone, different location vector: a separate partition, stored as a
  // distinct state even though the zones are comparable.
  auto other = store.intern(zone_state(1, 8));
  EXPECT_TRUE(other.inserted);
  EXPECT_FALSE(store.covered(0));
  EXPECT_EQ(store.size(), 2u);
}

TEST(StateStore, MetricsReportOccupancy) {
  SymStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.intern(zone_state(i, i + 1)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.stored, 100u);
  EXPECT_EQ(m.covered, 0u);
  EXPECT_GE(m.slots, 1024u);
  EXPECT_GT(m.occupied, 0u);
  EXPECT_GE(m.max_chain, 1u);
  EXPECT_GT(m.load_factor(), 0.0);
  EXPECT_LT(m.load_factor(), 0.5 + 1e-9);  // rehash keeps occupancy < 50%
}

TEST(StateStore, MetricsTrackChainsAndCoveredCounts) {
  // All states share one discrete partition under inclusion hashing, so they
  // land in a single hash chain — max_chain must see the pile-up, and each
  // strictly-covering insert tombstones its predecessor.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  constexpr int kN = 8;
  for (int ub = 1; ub <= kN; ++ub) {
    ASSERT_TRUE(store.intern(zone_state(0, ub)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.stored, static_cast<std::size_t>(kN));
  EXPECT_EQ(m.covered, static_cast<std::size_t>(kN - 1));  // only x<=kN live
  EXPECT_EQ(m.max_chain, static_cast<std::size_t>(kN));
  EXPECT_EQ(m.occupied, 1u);  // one partition = one occupied slot
  EXPECT_DOUBLE_EQ(m.load_factor(),
                   1.0 / static_cast<double>(m.slots));
  // Covered tombstones still count as stored states.
  for (int id = 0; id < kN - 1; ++id) EXPECT_TRUE(store.covered(id));
  EXPECT_FALSE(store.covered(kN - 1));
}

TEST(StateStore, MetricsLoadFactorMatchesOccupancy) {
  SymStore store;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(store.intern(zone_state(i, i + 1)).inserted);
  }
  auto m = store.metrics();
  EXPECT_EQ(m.occupied, 600u);  // exact mode, distinct partitions
  EXPECT_DOUBLE_EQ(m.load_factor(), static_cast<double>(m.occupied) /
                                        static_cast<double>(m.slots));
  // 600 distinct keys force at least one rehash past the initial 1024 slots
  // (rehash keeps occupancy strictly below 50%).
  EXPECT_GE(m.slots, 2048u);
  EXPECT_LT(m.load_factor(), 0.5);
}

TEST(StateStore, IncrementalMaxChainMatchesBruteForceScan) {
  // metrics().max_chain is maintained O(1) at insert time; pin it against
  // a brute-force count of the states per key hash, across group growth,
  // rehashes and tombstoning.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  for (int loc = 0; loc < 700; ++loc) {
    // Varying chain lengths per partition; covering inserts tombstone.
    for (int ub = 1; ub <= 1 + loc % 5; ++ub) {
      store.intern(zone_state(loc, ub));
    }
    if (loc % 97 == 0) {
      EXPECT_EQ(store.metrics().max_chain, store.scan_max_chain())
          << "after partition " << loc;
    }
  }
  EXPECT_EQ(store.metrics().max_chain, store.scan_max_chain());
  EXPECT_GE(store.metrics().max_chain, 5u);

  // The exact policy chains only on full-hash collisions; the invariant
  // holds there too.
  SymStore exact;
  for (int i = 0; i < 500; ++i) exact.intern(zone_state(i, 1 + i % 3));
  EXPECT_EQ(exact.metrics().max_chain, exact.scan_max_chain());
}

TEST(StateStore, MemoryBytesAccountsJournalRehashHeadroomAndPool) {
  // Pins the memory accounting formula against the store's public surface:
  // per-state records + covered column + one group entry each, one group
  // per key hash, table heads, the covered journal, the rehash-transient
  // head allowance, and the payload pool.
  // Regression: the journal and the rehash transient used to be uncounted,
  // silently eroding common::Budget memory ceilings on tombstone-heavy runs.
  SymStore store({.inclusion = true, .tombstone_covered = true});
  for (int loc = 0; loc < 120; ++loc) {
    for (int ub = 1; ub <= 4; ++ub) {
      store.intern(zone_state(loc, ub));  // each insert tombstones the last
    }
  }
  const auto m = store.metrics();
  ASSERT_GT(m.covered, 300u);
  const std::size_t per_state = sizeof(SymStore::Stored) +
                                sizeof(std::uint8_t) + sizeof(SymStore::Entry);
  const std::size_t expected =
      store.size() * per_state + m.slots * sizeof(std::int32_t) +
      store.covered_journal().capacity() * sizeof(std::int32_t) +
      m.occupied * (sizeof(std::int32_t) + sizeof(SymStore::Group)) +
      store.zone_pool().memory_bytes();
  EXPECT_EQ(store.memory_bytes(), expected);
  // The journal term specifically must be visible: it alone exceeds any
  // slack a caller could wave away.
  EXPECT_GE(store.memory_bytes(),
            store.covered_journal().size() * sizeof(std::int32_t));
}

TEST(StateStore, RestoreRebuildsTombstonedStoreStructurallyIdentically) {
  SymStore store({.inclusion = true, .tombstone_covered = true});
  // A mix of partitions, some with tombstoned ancestors.
  for (int loc = 0; loc < 40; ++loc) {
    ASSERT_TRUE(store.intern(zone_state(loc, 2)).inserted);
  }
  for (int loc = 0; loc < 40; loc += 2) {
    ASSERT_TRUE(store.intern(zone_state(loc, 9)).inserted);  // tombstones
  }
  const auto before = store.metrics();
  ASSERT_EQ(before.covered, 20u);

  // Round-trip the snapshot data: insertion-ordered states + covered bits.
  std::vector<ta::SymState> states;
  std::vector<std::uint8_t> covered;
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    states.push_back(store.state(id));
    covered.push_back(store.covered(id) ? 1 : 0);
  }
  auto rebuilt = SymStore::restore(store.options(), std::move(states),
                                   std::move(covered));

  // Structural identity: same table shape, same tombstones, same memory.
  const auto after = rebuilt.metrics();
  EXPECT_EQ(after.stored, before.stored);
  EXPECT_EQ(after.covered, before.covered);
  EXPECT_EQ(after.slots, before.slots);
  EXPECT_EQ(after.occupied, before.occupied);
  EXPECT_EQ(after.max_chain, before.max_chain);
  EXPECT_EQ(rebuilt.memory_bytes(), store.memory_bytes());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    EXPECT_EQ(rebuilt.covered(id), store.covered(id)) << "state " << i;
  }

  // Behavioral identity: interning continues exactly as in the original —
  // dedup against live representatives, tombstoned states stay dead, and a
  // genuinely new state gets the next id in both stores.
  auto dup_orig = store.intern(zone_state(0, 9));
  auto dup_rebuilt = rebuilt.intern(zone_state(0, 9));
  EXPECT_FALSE(dup_orig.inserted);
  EXPECT_FALSE(dup_rebuilt.inserted);
  EXPECT_EQ(dup_rebuilt.id, dup_orig.id);
  auto fresh_orig = store.intern(zone_state(1000, 1));
  auto fresh_rebuilt = rebuilt.intern(zone_state(1000, 1));
  EXPECT_TRUE(fresh_orig.inserted);
  EXPECT_TRUE(fresh_rebuilt.inserted);
  EXPECT_EQ(fresh_rebuilt.id, fresh_orig.id);
}

/// SymState traits whose partition hash keeps only two bits: distinct
/// discrete parts collide on one key hash, so one group mixes partitions.
struct CollidingSymTraits : core::StateTraits<ta::SymState> {
  static std::size_t partition_hash(const ta::SymState& s) {
    return core::StateTraits<ta::SymState>::partition_hash(s) & 3;
  }
};

/// The store's inclusion semantics written as plainly as possible: every
/// intern scans all stored states in insertion order, skipping other key
/// hashes and tombstones, and compares with the unpooled trait overloads.
/// It also pools what it inserts and tracks the table's growth, so every
/// StoreMetrics value has an independent expectation.
template <typename Traits>
class LinearScanStore {
 public:
  using Store = StateStore<ta::SymState, Traits>;

  explicit LinearScanStore(bool tombstone) : tombstone_(tombstone) {}

  typename Store::Interned intern(const ta::SymState& s) {
    const std::size_t h = Traits::partition_hash(s);
    for (std::size_t j = 0; j < states_.size(); ++j) {
      if (hashes_[j] != h || covered_[j] != 0 ||
          !Traits::same_partition(states_[j], s)) {
        continue;
      }
      switch (Traits::compare(states_[j], s)) {
        case core::Subsumes::kStored:
          return {static_cast<std::int32_t>(j), false};
        case core::Subsumes::kIncoming:
          if (tombstone_) {
            covered_[j] = 1;
            journal_.push_back(static_cast<std::int32_t>(j));
          }
          break;
        case core::Subsumes::kNone:
          break;
      }
    }
    const std::size_t under_hash = ++per_hash_[h];
    if (under_hash == 1 && ++occupied_ * 2 >= slots_) slots_ *= 2;
    max_chain_ = std::max(max_chain_, under_hash);
    Traits::pool(pool_, s);
    states_.push_back(s);
    hashes_.push_back(h);
    covered_.push_back(0);
    return {static_cast<std::int32_t>(states_.size() - 1), true};
  }

  const std::vector<std::int32_t>& covered_journal() const { return journal_; }

  void expect_metrics(const core::StoreMetrics& m) const {
    EXPECT_EQ(m.stored, states_.size());
    EXPECT_EQ(m.covered, journal_.size());
    EXPECT_EQ(m.slots, slots_);
    EXPECT_EQ(m.occupied, occupied_);
    EXPECT_EQ(m.max_chain, max_chain_);
    const std::size_t per_state = sizeof(typename Store::Stored) +
                                  sizeof(std::uint8_t) +
                                  sizeof(typename Store::Entry);
    EXPECT_EQ(m.memory_bytes,
              states_.size() * per_state + slots_ * sizeof(std::int32_t) +
                  journal_.capacity() * sizeof(std::int32_t) +
                  occupied_ * (sizeof(std::int32_t) +
                               sizeof(typename Store::Group)) +
                  pool_.memory_bytes());
    const store::PoolMetrics p = pool_.metrics();
    EXPECT_EQ(m.pool.records, p.records);
    EXPECT_EQ(m.pool.lookups, p.lookups);
    EXPECT_EQ(m.pool.hits, p.hits);
    EXPECT_EQ(m.pool.payload_words, p.payload_words);
    EXPECT_EQ(m.pool.logical_words, p.logical_words);
    EXPECT_EQ(m.pool.resident_bytes, p.resident_bytes);
  }

 private:
  bool tombstone_;
  std::vector<ta::SymState> states_;
  std::vector<std::size_t> hashes_;
  std::vector<std::uint8_t> covered_;
  std::vector<std::int32_t> journal_;
  std::unordered_map<std::size_t, std::size_t> per_hash_;
  std::size_t slots_ = 1024;
  std::size_t occupied_ = 0;
  std::size_t max_chain_ = 0;
  store::ZonePool pool_;
};

/// A random zone state of `dim` clocks+1 in one of 16 partitions. Bounds
/// are mostly small so inclusion is frequent; some exceed the int8 range of
/// the inline summary, some are strict, some relate two clocks, and about
/// one state in twelve is empty.
ta::SymState random_zone_state(std::uint32_t* rng, int dim) {
  auto next = [rng] { return (*rng = *rng * 1664525u + 1013904223u) >> 8; };
  ta::SymState s;
  s.locs = {static_cast<int>(next() % 4), static_cast<int>(next() % 2)};
  s.vars = {static_cast<std::int32_t>(next() % 2)};
  s.zone = dbm::Dbm::universal(dim);
  auto bound = [&] {
    return static_cast<std::int32_t>(next() % 8 == 0 ? 60 + next() % 50
                                                     : next() % 7);
  };
  for (int c = 1; c < dim; ++c) {
    const std::int32_t lo = static_cast<std::int32_t>(next() % 3);
    if (next() % 3 != 0) {
      const std::int32_t hi = std::max(lo, bound());
      s.zone.constrain(c, 0, next() % 4 == 0 ? dbm::bound_lt(hi + 1)
                                             : dbm::bound_le(hi));
    }
    if (next() % 3 == 0) s.zone.constrain(0, c, dbm::bound_le(-lo));
  }
  if (dim > 2 && next() % 4 == 0) {
    s.zone.constrain_le(1, 2, static_cast<std::int32_t>(next() % 3));
  }
  if (next() % 12 == 0) {
    s.zone.constrain_le(1, 0, 1);
    EXPECT_FALSE(s.zone.constrain(0, 1, dbm::bound_le(-3)));
  }
  return s;
}

template <typename Traits>
void expect_store_matches_linear_scan(int dim, bool tombstone,
                                      std::uint32_t seed) {
  SCOPED_TRACE(testing::Message() << "dim " << dim << " tombstone "
                                  << tombstone << " seed " << seed);
  using Store = StateStore<ta::SymState, Traits>;
  const typename Store::Options opts{.inclusion = true,
                                     .tombstone_covered = tombstone};
  std::uint32_t rng = seed;
  std::vector<ta::SymState> seq;
  for (int i = 0; i < 900; ++i) seq.push_back(random_zone_state(&rng, dim));
  const std::size_t cut = 1 + rng % (seq.size() - 1);

  Store store(opts);
  LinearScanStore<Traits> ref(tombstone);
  std::optional<Store> resumed;
  std::size_t journal_at_cut = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i == cut) {
      // Snapshot here and continue a restored copy alongside.
      std::vector<ta::SymState> states;
      std::vector<std::uint8_t> covered;
      for (std::size_t id = 0; id < store.size(); ++id) {
        states.push_back(store.state(static_cast<std::int32_t>(id)));
        covered.push_back(store.covered(static_cast<std::int32_t>(id)) ? 1 : 0);
      }
      resumed.emplace(Store::restore(opts, std::move(states), std::move(covered)));
      journal_at_cut = store.covered_journal().size();
      EXPECT_EQ(resumed->metrics().memory_bytes, store.metrics().memory_bytes);
    }
    const auto want = ref.intern(seq[i]);
    const auto got = store.intern(seq[i]);
    ASSERT_EQ(got.id, want.id) << "intern " << i;
    ASSERT_EQ(got.inserted, want.inserted) << "intern " << i;
    if (resumed) {
      const auto again = resumed->intern(seq[i]);
      ASSERT_EQ(again.id, want.id) << "restored, intern " << i;
      ASSERT_EQ(again.inserted, want.inserted) << "restored, intern " << i;
    }
  }
  EXPECT_EQ(store.covered_journal(), ref.covered_journal());
  ref.expect_metrics(store.metrics());
  ref.expect_metrics(resumed->metrics());
  EXPECT_EQ(store.scan_max_chain(), store.metrics().max_chain);
  // A restored journal lists the covered ids of its snapshot in index
  // order; what was tombstoned after the cut comes in flip order.
  const auto& rj = resumed->covered_journal();
  const auto& oj = store.covered_journal();
  ASSERT_EQ(rj.size(), oj.size());
  std::vector<std::int32_t> prefix(oj.begin(),
                                   oj.begin() + static_cast<std::ptrdiff_t>(journal_at_cut));
  std::sort(prefix.begin(), prefix.end());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), rj.begin()));
  EXPECT_TRUE(std::equal(oj.begin() + static_cast<std::ptrdiff_t>(journal_at_cut),
                         oj.end(),
                         rj.begin() + static_cast<std::ptrdiff_t>(journal_at_cut)));
}

TEST(StateStore, InclusionGroupsMatchLinearScanReference) {
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u}) {
    for (const bool tombstone : {true, false}) {
      // dim 9 has more clocks than the inline summary covers.
      for (const int dim : {2, 4, 9}) {
        expect_store_matches_linear_scan<core::StateTraits<ta::SymState>>(
            dim, tombstone, seed);
        expect_store_matches_linear_scan<CollidingSymTraits>(dim, tombstone,
                                                             seed);
      }
    }
  }
}

TEST(Worklist, BfsIsFifo) {
  Worklist w(SearchOrder::kBfs);
  EXPECT_TRUE(w.empty());
  w.push(1);
  w.push(2);
  w.push(3);
  EXPECT_EQ(w.pending(), 3u);
  EXPECT_EQ(w.pop().id, 1);
  EXPECT_EQ(w.pop().id, 2);
  EXPECT_EQ(w.pop().id, 3);
  EXPECT_TRUE(w.empty());
}

TEST(Worklist, DfsIsLifo) {
  Worklist w(SearchOrder::kDfs);
  w.push(1);
  w.push(2);
  w.push(3);
  EXPECT_EQ(w.pop().id, 3);
  w.push(4);
  EXPECT_EQ(w.pop().id, 4);
  EXPECT_EQ(w.pop().id, 2);
  EXPECT_EQ(w.pop().id, 1);
}

TEST(Worklist, PriorityPopsSmallestKey) {
  Worklist w(SearchOrder::kPriority);
  w.push(1, 30);
  w.push(2, 10);
  w.push(3, 20);
  EXPECT_EQ(w.pop().id, 2);
  // Lazy decrease-key: re-push id 1 with a better cost; the stale entry
  // stays behind and is popped later.
  w.push(1, 5);
  auto e = w.pop();
  EXPECT_EQ(e.id, 1);
  EXPECT_EQ(e.key, 5);
  EXPECT_EQ(w.pop().id, 3);
  EXPECT_EQ(w.pop().key, 30);  // the stale duplicate of id 1
  EXPECT_TRUE(w.empty());
}

/// The store snapshot every search returns must describe the store the
/// counters came from; all four store engines pool their states.
void expect_store_metrics(const core::SearchStats& stats, const char* what) {
  EXPECT_FALSE(stats.truncated) << what;
  EXPECT_GT(stats.states_stored, 0u) << what;
  EXPECT_EQ(stats.store.stored, stats.states_stored) << what;
  EXPECT_GT(stats.store.occupied, 0u) << what;
  EXPECT_GE(stats.store.slots, stats.store.occupied) << what;
  EXPECT_GT(stats.store.memory_bytes, 0u) << what;
  EXPECT_GT(stats.store.pool.lookups, 0u) << what;
}

TEST(SearchStats, CarryStoreMetrics) {
  auto tg = models::make_train_gate(2);
  expect_store_metrics(
      mc::check_invariant(tg.system, models::train_gate_mutex(tg)).stats,
      "mc invariant");
  expect_store_metrics(
      mc::check_leads_to(tg.system, mc::loc_pred(tg.system, "Train(0)", "Appr"),
                         mc::loc_pred(tg.system, "Train(0)", "Cross"))
          .stats,
      "mc leads-to");

  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  cora::PriceModel prices(tg.system);
  expect_store_metrics(
      cora::min_cost_reachability(
          tg.system, prices,
          common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross))
          .stats,
      "cora");

  auto tgame = models::make_train_game(
      {.num_trains = 1, .first_train_approaching = true});
  game::TimedGame g(tgame.system);
  expect_store_metrics(
      g.solve_reachability(common::loc_index_pred<ta::DigitalState>(
                               tgame.trains[0], tgame.l_cross))
          .stats,
      "game");
}

TEST(ExplorationCore, TruncationIsUniformAcrossEngines) {
  auto tg = models::make_train_gate(3);
  mc::ReachOptions opts;
  opts.limits.max_states = 10;
  // Unreachable goal + tiny limit: the search must report truncation, not a
  // definite negative verdict.
  auto r = mc::reachable(
      tg.system, [](const ta::SymState&) { return false; }, opts);
  EXPECT_FALSE(r.reachable());
  EXPECT_TRUE(r.stats.truncated);
  EXPECT_GE(r.stats.states_stored, 10u);

  auto inv = mc::check_invariant(
      tg.system, [](const ta::SymState&) { return true; }, opts);
  EXPECT_TRUE(inv.stats.truncated);

  // A limit the state space never reaches: no truncation.
  opts.limits.max_states = 1'000'000;
  auto full = mc::reachable(
      tg.system, [](const ta::SymState&) { return false; }, opts);
  EXPECT_FALSE(full.stats.truncated);
}

}  // namespace
