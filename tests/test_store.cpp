// Tests for the interned zone-storage substrate (src/store) and its
// integration with the exploration core: ZonePool content interning, arena
// allocation, and — the load-bearing property — bit-identical interning
// behavior of pooled stores against a reference unpooled store.
#include "store/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bip/traits.h"
#include "core/state_store.h"
#include "store/pack.h"
#include "ta/traits.h"

namespace {

using namespace quanta;
using store::Ref;
using store::ZonePool;

std::vector<std::int32_t> payload(int seed, std::size_t len) {
  std::vector<std::int32_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::int32_t>(seed * 7919 + static_cast<int>(i));
  }
  return v;
}

TEST(ZonePool, InternSharesIdenticalPayloads) {
  ZonePool pool;
  const auto a = payload(1, 16);
  const Ref r1 = pool.intern(a);
  const Ref r2 = pool.intern(a);
  EXPECT_EQ(r1, r2);
  const Ref r3 = pool.intern(payload(2, 16));
  EXPECT_NE(r3, r1);

  const auto m = pool.metrics();
  EXPECT_EQ(m.records, 2u);
  EXPECT_EQ(m.lookups, 3u);
  EXPECT_EQ(m.hits, 1u);
  EXPECT_DOUBLE_EQ(m.hit_rate(), 1.0 / 3.0);

  const auto d = pool.data(r1);
  ASSERT_EQ(d.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(d[i], a[i]);
}

TEST(ZonePool, EmptyAndOversizePayloadsIntern) {
  ZonePool pool;
  const Ref empty1 = pool.intern({});
  const Ref empty2 = pool.intern(std::vector<std::int32_t>{});
  EXPECT_EQ(empty1, empty2);
  EXPECT_TRUE(pool.data(empty1).empty());

  // Larger than one arena chunk: gets a dedicated chunk, stays addressable.
  const auto big = payload(3, (std::size_t{1} << 16) + 7);
  const Ref r = pool.intern(big);
  const auto d = pool.data(r);
  ASSERT_EQ(d.size(), big.size());
  EXPECT_EQ(d[0], big[0]);
  EXPECT_EQ(d[big.size() - 1], big[big.size() - 1]);
  EXPECT_EQ(pool.intern(big), r);
}

// ---------------------------------------------------------------------------
// Pooled StateStore vs a reference unpooled store: bit-identical interning.
// ---------------------------------------------------------------------------

/// The pre-pooling SymState policy: forwards to the unpooled half of
/// StateTraits<SymState> but omits `Pooled`, so the store keeps whole
/// states. The pooled store must be indistinguishable from this.
struct UnpooledSymTraits {
  static constexpr bool kSupportsInclusion = true;
  using Real = core::StateTraits<ta::SymState>;
  static std::size_t hash(const ta::SymState& s) { return Real::hash(s); }
  static bool equal(const ta::SymState& a, const ta::SymState& b) {
    return Real::equal(a, b);
  }
  static std::size_t partition_hash(const ta::SymState& s) {
    return Real::partition_hash(s);
  }
  static bool same_partition(const ta::SymState& a, const ta::SymState& b) {
    return Real::same_partition(a, b);
  }
  static core::Subsumes compare(const ta::SymState& stored,
                                const ta::SymState& incoming) {
    return Real::compare(stored, incoming);
  }
};

ta::SymState make_state(std::uint32_t* rng) {
  auto next = [rng] { return *rng = *rng * 1664525u + 1013904223u; };
  ta::SymState s;
  s.locs = {static_cast<int>(next() % 6), static_cast<int>(next() % 3)};
  s.vars = {static_cast<std::int32_t>(next() % 4)};
  s.zone = dbm::Dbm::universal(3);
  EXPECT_TRUE(s.zone.constrain_le(1, 0, static_cast<int>(next() % 12) + 1));
  if (next() % 2 == 0) {
    EXPECT_TRUE(s.zone.constrain_le(2, 0, static_cast<int>(next() % 12) + 1));
  }
  return s;
}

TEST(PooledStateStore, BitIdenticalToUnpooledReference) {
  for (const bool inclusion : {false, true}) {
    core::StateStore<ta::SymState, UnpooledSymTraits> reference(
        {.inclusion = inclusion});
    core::StateStore<ta::SymState> pooled({.inclusion = inclusion});
    static_assert(core::StateStore<ta::SymState>::kPooled);

    std::uint32_t rng = 42;
    for (int i = 0; i < 800; ++i) {
      const ta::SymState s = make_state(&rng);
      const auto r = reference.intern(s);
      const auto p = pooled.intern(s);
      EXPECT_EQ(p.id, r.id) << "intern " << i;
      EXPECT_EQ(p.inserted, r.inserted) << "intern " << i;
    }
    ASSERT_EQ(pooled.size(), reference.size());
    EXPECT_EQ(pooled.covered_journal(), reference.covered_journal());
    const auto mr = reference.metrics();
    const auto mp = pooled.metrics();
    EXPECT_EQ(mp.covered, mr.covered);
    EXPECT_EQ(mp.slots, mr.slots);
    EXPECT_EQ(mp.occupied, mr.occupied);
    EXPECT_EQ(mp.max_chain, mr.max_chain);
    // Materialized states reproduce the stored originals exactly.
    for (std::size_t i = 0; i < pooled.size(); ++i) {
      const auto id = static_cast<std::int32_t>(i);
      const ta::SymState s = pooled.state(id);
      EXPECT_TRUE(UnpooledSymTraits::equal(s, reference.state(id)))
          << "state " << i;
      EXPECT_EQ(pooled.covered(id), reference.covered(id));
    }
    // The whole point: identical payloads are interned once.
    const auto pm = pooled.zone_pool().metrics();
    EXPECT_GT(pm.hits, 0u);
    EXPECT_LT(pm.records, 3 * pooled.size());
  }
}

TEST(PooledStateStore, DigitalAndBipStatesRoundTrip) {
  core::StateStore<ta::DigitalState> dstore;
  ta::DigitalState d;
  d.locs = {1, 2, 3};
  d.vars = {7};
  d.clocks = {0, 4, 9};
  ASSERT_TRUE(dstore.intern(d).inserted);
  EXPECT_FALSE(dstore.intern(d).inserted);  // pooled equal() dedups
  EXPECT_EQ(dstore.state(0), d);

  core::StateStore<bip::BipState> bstore;
  bip::BipState b;
  b.places = {0, 2};
  b.vars = {{1, 2, 3}, {}, {5}};
  ASSERT_TRUE(bstore.intern(b).inserted);
  EXPECT_FALSE(bstore.intern(b).inserted);
  EXPECT_EQ(bstore.state(0), b);
  // A state differing only in valuation grouping must stay distinct.
  bip::BipState b2;
  b2.places = {0, 2};
  b2.vars = {{1, 2}, {3}, {5}};
  EXPECT_TRUE(bstore.intern(b2).inserted);
  EXPECT_EQ(bstore.state(1), b2);
}

TEST(PooledStateStore, PoolMetricsSurfaceInStoreMetrics) {
  core::StateStore<ta::SymState> store({.inclusion = true});
  std::uint32_t rng = 3;
  for (int i = 0; i < 100; ++i) store.intern(make_state(&rng));
  const auto m = store.metrics();
  EXPECT_GT(m.pool.lookups, 0u);
  EXPECT_GT(m.pool.records, 0u);
  EXPECT_GT(m.pool.resident_bytes, 0u);
}

}  // namespace
