// Tests for the interned zone-storage substrate (src/store) and its
// integration with the exploration core: ZonePool content interning, arena
// allocation, the spill tier (including injected write failures), the
// QUANTA_STORE_MEM/QUANTA_STORE_SPILL knobs, and — the load-bearing
// property — bit-identical interning behavior of pooled stores against a
// reference unpooled store, with and without spilling.
#include "store/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bip/traits.h"
#include "common/fault.h"
#include "core/state_store.h"
#include "store/pack.h"
#include "store/spill.h"
#include "ta/traits.h"

namespace {

using namespace quanta;
using store::PoolConfig;
using store::Ref;
using store::SpillFile;
using store::ZonePool;

std::string temp_path(const char* name) {
  return testing::TempDir() + "quanta_store_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<std::int32_t> payload(int seed, std::size_t len) {
  std::vector<std::int32_t> v(len);
  for (std::size_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::int32_t>(seed * 7919 + static_cast<int>(i));
  }
  return v;
}

TEST(ParseMemoryBytes, AcceptsWholeByteCountsWithBinarySuffix) {
  std::size_t out = 0;
  EXPECT_TRUE(store::parse_memory_bytes("1024", &out));
  EXPECT_EQ(out, 1024u);
  EXPECT_TRUE(store::parse_memory_bytes("4K", &out));
  EXPECT_EQ(out, 4096u);
  EXPECT_TRUE(store::parse_memory_bytes("16m", &out));
  EXPECT_EQ(out, 16u << 20);
  EXPECT_TRUE(store::parse_memory_bytes("2G", &out));
  EXPECT_EQ(out, std::size_t{2} << 30);
}

TEST(ParseMemoryBytes, RejectsMalformedSpecsWholesale) {
  // Same strictness as QUANTA_JOBS: no half-parsing, no silent truncation.
  std::size_t out = 12345;
  for (const char* bad : {"", "0", "-5", "+5", "4KB", "1.5G", "abc", "10x",
                          "G", "99999999999999999999G"}) {
    EXPECT_FALSE(store::parse_memory_bytes(bad, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, 12345u) << "out must stay untouched for '" << bad << "'";
  }
  EXPECT_FALSE(store::parse_memory_bytes(nullptr, &out));
}

TEST(PoolConfigFromEnv, ParsesKnobsAndDegradesOnGarbage) {
  ::setenv("QUANTA_STORE_MEM", "8M", 1);
  ::setenv("QUANTA_STORE_SPILL", "/tmp/some_spill_file", 1);
  PoolConfig cfg = store::pool_config_from_env();
  EXPECT_EQ(cfg.resident_limit, 8u << 20);
  EXPECT_EQ(cfg.spill_path, "/tmp/some_spill_file");

  ::setenv("QUANTA_STORE_MEM", "lots", 1);
  ::setenv("QUANTA_STORE_SPILL", "", 1);
  cfg = store::pool_config_from_env();
  EXPECT_EQ(cfg.resident_limit, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(cfg.spill_path.empty());

  ::unsetenv("QUANTA_STORE_MEM");
  ::unsetenv("QUANTA_STORE_SPILL");
  cfg = store::pool_config_from_env();
  EXPECT_EQ(cfg.resident_limit, std::numeric_limits<std::size_t>::max());
  EXPECT_TRUE(cfg.spill_path.empty());
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

TEST(SpillFile, AppendReadRoundTripAndBoundsChecks) {
  const std::string path = temp_path("spill_rt");
  SpillFile f;
  ASSERT_TRUE(f.open(path, 1u << 20));
  EXPECT_TRUE(f.ok());

  const auto a = payload(5, 32);
  const std::size_t off_a = f.append(a.data(), a.size());
  ASSERT_NE(off_a, std::numeric_limits<std::size_t>::max());
  const auto b = payload(6, 5);
  const std::size_t off_b = f.append(b.data(), b.size());
  ASSERT_NE(off_b, std::numeric_limits<std::size_t>::max());

  auto ra = f.read(off_a, a.size());
  ASSERT_EQ(ra.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(ra[i], a[i]);
  auto rb = f.read(off_b, b.size());
  ASSERT_EQ(rb.size(), b.size());
  EXPECT_EQ(rb[0], b[0]);

  // Reads past the written high-water mark or inside the header are refused.
  EXPECT_TRUE(f.read(off_b, b.size() + 1).empty());
  EXPECT_TRUE(f.read(0, 1).empty());
  EXPECT_TRUE(f.read(f.written_bytes(), 1).empty());
  std::remove(path.c_str());
}

TEST(SpillFile, OpenDiscardsPreexistingContentWholesale) {
  const std::string path = temp_path("spill_trunc");
  // A stale file truncated mid-record (e.g. a crashed run or a filesystem
  // hiccup) must be thrown away, not resumed: the spill tier is a cache.
  {
    std::FILE* raw = std::fopen(path.c_str(), "wb");
    ASSERT_NE(raw, nullptr);
    std::fputs("QSPL1 but then garbage cut off mid-reco", raw);
    std::fclose(raw);
  }
  SpillFile f;
  ASSERT_TRUE(f.open(path, 1u << 20));
  EXPECT_EQ(f.written_bytes(), 16u);  // fresh header only
  // Nothing of the stale content is readable.
  EXPECT_TRUE(f.read(16, 1).empty());
  std::remove(path.c_str());
}

TEST(ZonePool, EvictionSpillsColdChunksAndReadsThrough) {
  const std::string path = temp_path("pool_evict");
  PoolConfig cfg;
  cfg.spill_path = path;
  cfg.resident_limit = 1u << 16;  // well below a few chunks
  ZonePool pool(cfg);

  std::vector<Ref> refs;
  constexpr int kPayloads = 64;
  constexpr std::size_t kLen = 4096;  // 16 KiB each: forces several chunks
  for (int i = 0; i < kPayloads; ++i) refs.push_back(pool.intern(payload(i, kLen)));

  const auto m = pool.metrics();
  EXPECT_GT(m.spilled_records, 0u);
  EXPECT_GT(m.spilled_bytes, 0u);
  EXPECT_LE(m.resident_bytes, (1u << 16) + kLen * sizeof(std::int32_t) * 2);
  EXPECT_TRUE(pool.spill_ok());

  // Every payload — spilled or resident — reads back exactly.
  for (int i = 0; i < kPayloads; ++i) {
    const auto d = pool.data(refs[static_cast<std::size_t>(i)]);
    const auto expect = payload(i, kLen);
    ASSERT_EQ(d.size(), expect.size()) << "payload " << i;
    EXPECT_EQ(d[0], expect[0]);
    EXPECT_EQ(d[kLen - 1], expect[kLen - 1]);
  }
  // Interning an already-spilled payload is still a hit (dedup reads
  // through the mapping).
  EXPECT_EQ(pool.intern(payload(0, kLen)), refs[0]);
  std::remove(path.c_str());
}

TEST(ZonePool, RefsAreIndependentOfSpillSchedule) {
  // Determinism: the Ref sequence is a pure function of the intern-call
  // sequence — never of the memory ceiling or the spill tier.
  const std::string path = temp_path("pool_det");
  PoolConfig spilling;
  spilling.spill_path = path;
  spilling.resident_limit = 1u << 14;
  ZonePool a;           // unlimited, no spill
  ZonePool b(spilling); // thrashing
  for (int i = 0; i < 200; ++i) {
    const auto p = payload(i % 37, 512 + static_cast<std::size_t>(i % 5));
    EXPECT_EQ(a.intern(p), b.intern(p)) << "intern " << i;
  }
  EXPECT_EQ(a.metrics().records, b.metrics().records);
  EXPECT_EQ(a.metrics().hits, b.metrics().hits);
  EXPECT_GT(b.metrics().spilled_records, 0u);
  std::remove(path.c_str());
}

TEST(ZonePool, SpillWriteFaultDegradesToResidentStorage) {
  const std::string path = temp_path("pool_fault");
  PoolConfig cfg;
  cfg.spill_path = path;
  cfg.resident_limit = 1;  // evict eagerly
  ZonePool pool(cfg);

  common::FaultInjector::instance().arm("store.spill.write",
                                        common::FaultKind::kException, 1);
  std::vector<Ref> refs;
  for (int i = 0; i < 32; ++i) {
    refs.push_back(pool.intern(payload(i, 4096)));
  }
  common::FaultInjector::instance().disarm();

  // The first eviction write failed: the spill tier is poisoned, payloads
  // stay resident, and the failure is counted — never an exception or a
  // wrong read.
  EXPECT_FALSE(pool.spill_ok());
  EXPECT_GE(pool.metrics().spill_failures, 1u);
  EXPECT_EQ(pool.metrics().spilled_records, 0u);
  for (int i = 0; i < 32; ++i) {
    const auto d = pool.data(refs[static_cast<std::size_t>(i)]);
    ASSERT_EQ(d.size(), 4096u);
    EXPECT_EQ(d[0], payload(i, 1)[0]);
  }
  std::remove(path.c_str());
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

/// Like make_state but with a dim-8 zone and wide constraint ranges: mostly
/// distinct payloads, so a few hundred states overflow a tight resident
/// ceiling and force eviction traffic through the spill tier.
ta::SymState make_wide_state(std::uint32_t* rng) {
  auto next = [rng] { return *rng = *rng * 1664525u + 1013904223u; };
  ta::SymState s;
  s.locs = {static_cast<int>(next() % 6), static_cast<int>(next() % 3)};
  s.vars = {static_cast<std::int32_t>(next() % 4)};
  s.zone = dbm::Dbm::universal(8);
  for (int c = 1; c < 8; ++c) {
    EXPECT_TRUE(
        s.zone.constrain_le(c, 0, static_cast<int>(next() % 4096) + 1));
  }
  return s;
}

TEST(PooledStateStore, SpillingStoreStaysBitIdentical) {
  const std::string path = temp_path("store_spill");
  PoolConfig cfg;
  cfg.spill_path = path;
  cfg.resident_limit = 1u << 12;  // 4 KiB: forces heavy eviction
  core::StateStore<ta::SymState, UnpooledSymTraits> reference(
      {.inclusion = true});
  core::StateStore<ta::SymState> pooled({.inclusion = true, .pool = cfg});

  std::uint32_t rng = 7;
  for (int i = 0; i < 800; ++i) {
    const ta::SymState s = make_wide_state(&rng);
    const auto r = reference.intern(s);
    const auto p = pooled.intern(s);
    ASSERT_EQ(p.id, r.id) << "intern " << i;
    ASSERT_EQ(p.inserted, r.inserted) << "intern " << i;
  }
  EXPECT_GT(pooled.zone_pool().metrics().spilled_records, 0u);
  EXPECT_EQ(pooled.covered_journal(), reference.covered_journal());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    EXPECT_TRUE(UnpooledSymTraits::equal(pooled.state(id), reference.state(id)))
        << "state " << i;
  }
  std::remove(path.c_str());
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
  EXPECT_EQ(m.pool.spilled_records, 0u);  // no spill configured
}

}  // namespace
