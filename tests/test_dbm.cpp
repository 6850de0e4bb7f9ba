// Unit and property tests for the DBM zone library.
#include "dbm/dbm.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/rng.h"

namespace {

using namespace quanta::dbm;

TEST(Bound, EncodingRoundTrip) {
  EXPECT_EQ(bound_value(bound_le(5)), 5);
  EXPECT_FALSE(bound_is_strict(bound_le(5)));
  EXPECT_EQ(bound_value(bound_lt(-3)), -3);
  EXPECT_TRUE(bound_is_strict(bound_lt(-3)));
}

TEST(Bound, OrderingMatchesStrength) {
  // (m, <) is strictly tighter than (m, <=), which is tighter than (m+1, <).
  EXPECT_LT(bound_lt(4), bound_le(4));
  EXPECT_LT(bound_le(4), bound_lt(5));
  EXPECT_LT(bound_le(4), kInf);
}

TEST(Bound, Addition) {
  EXPECT_EQ(bound_add(bound_le(2), bound_le(3)), bound_le(5));
  EXPECT_EQ(bound_add(bound_le(2), bound_lt(3)), bound_lt(5));
  EXPECT_EQ(bound_add(bound_lt(2), bound_lt(3)), bound_lt(5));
  EXPECT_EQ(bound_add(kInf, bound_le(1)), kInf);
  EXPECT_EQ(bound_add(bound_le(-7), kInf), kInf);
}

TEST(Bound, Negation) {
  EXPECT_EQ(bound_negate(bound_le(5)), bound_lt(-5));
  EXPECT_EQ(bound_negate(bound_lt(5)), bound_le(-5));
  EXPECT_EQ(bound_negate(bound_negate(bound_le(3))), bound_le(3));
}

TEST(Dbm, ZeroContainsOnlyOrigin) {
  Dbm z = Dbm::zero(3);
  EXPECT_FALSE(z.is_empty());
  EXPECT_TRUE(z.contains_point({0.0, 0.0, 0.0}));
  EXPECT_FALSE(z.contains_point({0.0, 1.0, 0.0}));
}

TEST(Dbm, UniversalContainsEverythingNonNegative) {
  Dbm u = Dbm::universal(3);
  EXPECT_TRUE(u.contains_point({0.0, 0.0, 0.0}));
  EXPECT_TRUE(u.contains_point({0.0, 100.5, 3.25}));
  EXPECT_FALSE(u.contains_point({0.0, -0.5, 1.0}));
}

TEST(Dbm, ConstrainBasic) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, bound_le(5)));   // x <= 5
  ASSERT_TRUE(z.constrain(0, 1, bound_le(-2)));  // x >= 2
  EXPECT_TRUE(z.contains_point({0.0, 3.0}));
  EXPECT_FALSE(z.contains_point({0.0, 1.0}));
  EXPECT_FALSE(z.contains_point({0.0, 6.0}));
  // Conflicting constraint empties the zone.
  EXPECT_FALSE(z.constrain(1, 0, bound_lt(2)));
  EXPECT_TRUE(z.is_empty());
}

TEST(Dbm, SatisfiesDoesNotModify) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, bound_le(5)));
  Dbm copy = z;
  EXPECT_TRUE(z.satisfies(0, 1, bound_le(-4)));   // x >= 4 intersects [0,5]
  EXPECT_FALSE(z.satisfies(0, 1, bound_le(-6)));  // x >= 6 does not
  EXPECT_EQ(z, copy);
}

TEST(Dbm, UpRemovesUpperBounds) {
  Dbm z = Dbm::zero(3);
  z.up();
  EXPECT_TRUE(z.contains_point({0.0, 7.0, 7.0}));
  // Delay preserves clock differences: x1 - x2 == 0 still required.
  EXPECT_FALSE(z.contains_point({0.0, 7.0, 3.0}));
}

TEST(Dbm, DownReachesPast) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, bound_le(10)));
  ASSERT_TRUE(z.constrain(0, 1, bound_le(-8)));  // x in [8, 10]
  z.down();
  EXPECT_TRUE(z.contains_point({0.0, 1.0}));
  EXPECT_TRUE(z.contains_point({0.0, 10.0}));
  EXPECT_FALSE(z.contains_point({0.0, 11.0}));
}

TEST(Dbm, ResetSetsValue) {
  Dbm z = Dbm::zero(3);
  z.up();
  z.reset(1, 0);
  EXPECT_TRUE(z.contains_point({0.0, 0.0, 4.0}));
  EXPECT_FALSE(z.contains_point({0.0, 1.0, 4.0}));
  z.reset(2, 3);
  EXPECT_TRUE(z.contains_point({0.0, 0.0, 3.0}));
  EXPECT_FALSE(z.contains_point({0.0, 0.0, 2.0}));
}

TEST(Dbm, FreeClock) {
  Dbm z = Dbm::zero(3);
  z.free_clock(1);
  EXPECT_TRUE(z.contains_point({0.0, 42.0, 0.0}));
  EXPECT_FALSE(z.contains_point({0.0, 42.0, 1.0}));
}

TEST(Dbm, CopyClock) {
  Dbm z = Dbm::zero(3);
  z.up();                       // x1 == x2, any value
  ASSERT_TRUE(z.constrain(1, 0, bound_le(5)));
  z.reset(2, 0);                // x2 := 0
  z.copy_clock(2, 1);           // x2 := x1
  EXPECT_TRUE(z.contains_point({0.0, 4.0, 4.0}));
  EXPECT_FALSE(z.contains_point({0.0, 4.0, 0.0}));
}

TEST(Dbm, RelationBasics) {
  Dbm big = Dbm::universal(2);
  ASSERT_TRUE(big.constrain(1, 0, bound_le(10)));
  Dbm small = big;
  ASSERT_TRUE(small.constrain(1, 0, bound_le(5)));
  EXPECT_EQ(small.relation(big), Relation::kSubset);
  EXPECT_EQ(big.relation(small), Relation::kSuperset);
  EXPECT_EQ(big.relation(big), Relation::kEqual);
  EXPECT_TRUE(small.subset_eq(big));
  EXPECT_FALSE(big.subset_eq(small));
}

TEST(Dbm, IntersectionEmptiness) {
  Dbm a = Dbm::universal(2);
  ASSERT_TRUE(a.constrain(1, 0, bound_le(4)));   // x <= 4
  Dbm b = Dbm::universal(2);
  ASSERT_TRUE(b.constrain(0, 1, bound_lt(-4)));  // x > 4
  EXPECT_FALSE(a.intersects(b));
  Dbm c = Dbm::universal(2);
  ASSERT_TRUE(c.constrain(0, 1, bound_le(-4)));  // x >= 4
  EXPECT_TRUE(a.intersects(c));                  // touch at x == 4
}

TEST(Dbm, ExtrapolationAbstractsLargeBounds) {
  // Zone x1 in [17, 23] with max constant 10: lower bound weakens to > 10,
  // upper bound disappears.
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, bound_le(23)));
  ASSERT_TRUE(z.constrain(0, 1, bound_le(-17)));
  z.extrapolate_max_bounds({0, 10});
  EXPECT_TRUE(z.contains_point({0.0, 1000.0}));
  EXPECT_TRUE(z.contains_point({0.0, 10.5}));
  EXPECT_FALSE(z.contains_point({0.0, 9.0}));
}

TEST(Dbm, ExtrapolationKeepsSmallZonesIntact) {
  Dbm z = Dbm::universal(2);
  ASSERT_TRUE(z.constrain(1, 0, bound_le(7)));
  ASSERT_TRUE(z.constrain(0, 1, bound_le(-2)));
  Dbm before = z;
  z.extrapolate_max_bounds({0, 10});
  EXPECT_EQ(z, before);
}

// ---------------------------------------------------------------------------
// Property tests: random canonical zones, checked against sampled points.
// ---------------------------------------------------------------------------

class DbmProperty : public ::testing::TestWithParam<int> {};

Dbm random_zone(quanta::common::Rng& rng, int dim, int max_const) {
  Dbm z = Dbm::universal(dim);
  int n_constraints = rng.uniform_int(0, 2 * dim);
  for (int c = 0; c < n_constraints; ++c) {
    int i = rng.uniform_int(0, dim - 1);
    int j = rng.uniform_int(0, dim - 1);
    if (i == j) continue;
    int v = rng.uniform_int(-max_const, max_const);
    raw_t b = rng.bernoulli(0.5) ? bound_le(v) : bound_lt(v);
    if (!z.constrain(i, j, b)) return random_zone(rng, dim, max_const);
  }
  return z;
}

std::vector<double> random_point(quanta::common::Rng& rng, int dim,
                                 double max_val) {
  std::vector<double> p(static_cast<std::size_t>(dim), 0.0);
  for (int i = 1; i < dim; ++i) p[static_cast<std::size_t>(i)] = rng.uniform(0.0, max_val);
  return p;
}

TEST_P(DbmProperty, CloseIsIdempotent) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Dbm z = random_zone(rng, 4, 12);
  Dbm closed = z;
  closed.close();
  EXPECT_EQ(z, closed) << "constrain() must keep the DBM canonical";
}

TEST_P(DbmProperty, InclusionAgreesWithPointMembership) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  Dbm a = random_zone(rng, 3, 10);
  Dbm b = random_zone(rng, 3, 10);
  if (a.subset_eq(b)) {
    for (int t = 0; t < 200; ++t) {
      auto p = random_point(rng, 3, 12.0);
      if (a.contains_point(p)) {
        EXPECT_TRUE(b.contains_point(p));
      }
    }
  }
}

TEST_P(DbmProperty, UpContainsOriginalAndAllDelays) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  Dbm z = random_zone(rng, 3, 10);
  Dbm up = z;
  up.up();
  EXPECT_TRUE(z.subset_eq(up));
  for (int t = 0; t < 100; ++t) {
    auto p = random_point(rng, 3, 12.0);
    if (!z.contains_point(p)) continue;
    double d = rng.uniform(0.0, 5.0);
    auto q = p;
    for (std::size_t i = 1; i < q.size(); ++i) q[i] += d;
    EXPECT_TRUE(up.contains_point(q));
  }
}

TEST_P(DbmProperty, DownIsGaloisAdjointOfUp) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 5);
  Dbm z = random_zone(rng, 3, 10);
  Dbm down = z;
  down.down();
  // Every point of down can delay into z.
  for (int t = 0; t < 100; ++t) {
    auto p = random_point(rng, 3, 12.0);
    if (!down.contains_point(p)) continue;
    bool can_reach = false;
    for (double d = 0.0; d <= 25.0 && !can_reach; d += 0.25) {
      auto q = p;
      for (std::size_t i = 1; i < q.size(); ++i) q[i] += d;
      if (z.contains_point(q)) can_reach = true;
    }
    EXPECT_TRUE(can_reach) << "down() point cannot delay back into the zone";
  }
}

TEST_P(DbmProperty, ResetProjectsCorrectly) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  Dbm z = random_zone(rng, 3, 10);
  if (z.is_empty()) GTEST_SKIP();
  Dbm r = z;
  r.reset(1, 4);
  for (int t = 0; t < 100; ++t) {
    auto p = random_point(rng, 3, 12.0);
    if (!r.contains_point(p)) continue;
    EXPECT_DOUBLE_EQ(p[1], p[1]);  // structure check below
    EXPECT_NEAR(p[1], 4.0, 1e-6);
  }
}

TEST_P(DbmProperty, ExtrapolationIsAnUpperApproximation) {
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 11);
  Dbm z = random_zone(rng, 3, 20);
  Dbm ex = z;
  ex.extrapolate_max_bounds({0, 8, 8});
  EXPECT_TRUE(z.subset_eq(ex));
}

/// What extrapolate_max_bounds must produce: every bound past its clock's
/// max constant loosened, then a full Floyd-Warshall close().
Dbm loosen_then_close(Dbm z, const std::vector<std::int32_t>& k) {
  if (z.is_empty()) return z;
  for (int i = 0; i < z.dim(); ++i) {
    for (int j = 0; j < z.dim(); ++j) {
      const raw_t b = z.at(i, j);
      if (i == j || b >= kInf) continue;
      if (i != 0 && bound_value(b) > k[static_cast<std::size_t>(i)]) {
        z.set(i, j, kInf);
      } else if (-bound_value(b) > k[static_cast<std::size_t>(j)]) {
        z.set(i, j, bound_lt(-k[static_cast<std::size_t>(j)]));
      }
    }
  }
  z.close();
  return z;
}

TEST_P(DbmProperty, ExtrapolationEqualsLoosenThenFullClose) {
  // extrapolate_max_bounds re-closes only the entries it loosens; the result
  // must be the canonical form a full close() gives, bit for bit. Dimensions
  // run past ta::StateTraits<SymState>::kInlineRows (8 clocks).
  quanta::common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 13);
  for (int round = 0; round < 40; ++round) {
    const int dim = rng.uniform_int(1, 9);
    Dbm z = random_zone(rng, dim, 20);
    if (dim > 1 && rng.bernoulli(0.5)) {
      z.reset(rng.uniform_int(1, dim - 1), rng.uniform_int(0, 20));
    }
    if (rng.bernoulli(0.5)) z.up();
    std::vector<std::int32_t> k(static_cast<std::size_t>(dim), 0);
    for (std::size_t c = 1; c < k.size(); ++c) {
      k[c] = rng.bernoulli(0.25) ? 0 : rng.uniform_int(0, 15);
    }
    const Dbm expected = loosen_then_close(z, k);
    Dbm got = z;
    got.extrapolate_max_bounds(k);
    ASSERT_EQ(got, expected) << "round " << round << ", dim " << dim
                             << "\nzone:     " << z.to_string()
                             << "\nexpected: " << expected.to_string()
                             << "\ngot:      " << got.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DbmProperty, ::testing::Range(0, 25));

}  // namespace
