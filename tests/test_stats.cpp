// Tests for the statistical primitives (Welford moments, Clopper-Pearson
// intervals, Chernoff bounds, RNG sampling).
#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "common/rng.h"

namespace {

using namespace quanta::common;

TEST(RunningStats, MomentsMatchClosedForm) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats st;
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
  st.add(3.5);
  EXPECT_DOUBLE_EQ(st.mean(), 3.5);
  EXPECT_EQ(st.variance(), 0.0);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x (uniform CDF).
  EXPECT_NEAR(incomplete_beta(1, 1, 0.3), 0.3, 1e-9);
  // I_x(2,1) = x^2.
  EXPECT_NEAR(incomplete_beta(2, 1, 0.5), 0.25, 1e-9);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(3.0, 7.0, 0.2),
              1.0 - incomplete_beta(7.0, 3.0, 0.8), 1e-9);
  EXPECT_EQ(incomplete_beta(2, 3, 0.0), 0.0);
  EXPECT_EQ(incomplete_beta(2, 3, 1.0), 1.0);
}

TEST(ClopperPearson, DegenerateCounts) {
  auto [lo0, hi0] = clopper_pearson(0, 100, 0.05);
  EXPECT_EQ(lo0, 0.0);
  EXPECT_NEAR(hi0, 1.0 - std::pow(0.025, 1.0 / 100.0), 1e-6);
  auto [lo1, hi1] = clopper_pearson(100, 100, 0.05);
  EXPECT_EQ(hi1, 1.0);
  EXPECT_NEAR(lo1, std::pow(0.025, 1.0 / 100.0), 1e-6);
}

TEST(ClopperPearson, CoversPointEstimate) {
  auto [lo, hi] = clopper_pearson(30, 100, 0.05);
  EXPECT_LT(lo, 0.3);
  EXPECT_GT(hi, 0.3);
  EXPECT_GT(lo, 0.2);
  EXPECT_LT(hi, 0.41);
}

TEST(ClopperPearson, IntervalShrinksWithSamples) {
  auto [lo1, hi1] = clopper_pearson(30, 100, 0.05);
  auto [lo2, hi2] = clopper_pearson(300, 1000, 0.05);
  EXPECT_LT(hi2 - lo2, hi1 - lo1);
}

TEST(Chernoff, MatchesFormula) {
  // n >= ln(2/delta) / (2 eps^2)
  EXPECT_EQ(chernoff_sample_count(0.05, 0.05),
            static_cast<std::size_t>(std::ceil(std::log(40.0) / 0.005)));
  EXPECT_GT(chernoff_sample_count(0.01, 0.05), chernoff_sample_count(0.05, 0.05));
}

TEST(Chernoff, RejectsBadParameters) {
  EXPECT_THROW(chernoff_sample_count(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(chernoff_sample_count(0.1, 1.5), std::invalid_argument);
}

TEST(Rng, ExponentialMeanAndReproducibility) {
  Rng rng(42);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, WeightedChoiceDistribution) {
  Rng rng(3);
  double weights[] = {1.0, 3.0, 0.0, 6.0};
  std::size_t counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 20000; ++i) counts[rng.weighted_choice(weights)]++;
  EXPECT_EQ(counts[2], 0u);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[3]) / 20000.0, 0.6, 0.02);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(5);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1e300), std::invalid_argument);
  // The generator stays usable after a rejected call.
  EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, WeightedChoiceErrorPaths) {
  Rng rng(6);
  double negative[] = {1.0, -0.5, 2.0};
  EXPECT_THROW(rng.weighted_choice(negative), std::invalid_argument);
  double zeros[] = {0.0, 0.0, 0.0};
  EXPECT_THROW(rng.weighted_choice(zeros), std::invalid_argument);
  EXPECT_THROW(rng.weighted_choice({}), std::invalid_argument)
      << "an empty weight list has no positive weight";
  // A single positive weight is always chosen, whatever surrounds it.
  double lone[] = {0.0, 3.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_choice(lone), 1u);
}

/// The draws of common::Rng, written out over std::mt19937_64: what Rng
/// produced when it wrapped the standard engine.
class StdReferenceRng {
 public:
  explicit StdReferenceRng(std::uint64_t seed) : engine_(seed) {}
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  double exponential(double rate) {
    double u = uniform01();
    if (u <= 0.0) u = std::numeric_limits<double>::min();
    return -std::log(u) / rate;
  }
  std::size_t weighted_choice(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    const double target = uniform01() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (target < acc) return i;
    }
    return weights.size() - 1;
  }

 private:
  std::mt19937_64 engine_;
};

TEST(Rng, Mt64MatchesStdMersenneTwister) {
  const std::uint64_t seeds[] = {0,
                                 1,
                                 5489,
                                 0x5eed5eed5eedULL,
                                 ~std::uint64_t{0},
                                 0x123456789abcdefULL};
  for (std::uint64_t seed : seeds) {
    // Raw outputs across three full state generations and into a fourth.
    Mt64 mt(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < 3 * Mt64::kN + 7; ++i) {
      ASSERT_EQ(mt(), ref()) << "seed " << seed << " draw " << i;
    }

    // Reseeding in the middle of a generation restarts the stream.
    Mt64 re(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 200; ++i) re();
    re.seed_in_place(seed);
    std::mt19937_64 fresh(seed);
    for (std::size_t i = 0; i < 2 * Mt64::kN; ++i) {
      ASSERT_EQ(re(), fresh()) << "reseeded, seed " << seed << " draw " << i;
    }

    // Every distribution of Rng, interleaved, against the same arithmetic
    // over the standard engine — also after an in-place Rng::reseed.
    Rng rng(seed + 1);
    for (int i = 0; i < 97; ++i) rng.uniform01();
    rng.reseed(seed);
    StdReferenceRng want(seed);
    const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25};
    for (int i = 0; i < 5000; ++i) {
      switch (i % 4) {
        case 0:
          ASSERT_EQ(rng.uniform01(), want.uniform01()) << i;
          break;
        case 1:
          ASSERT_EQ(rng.uniform_int(-3, i % 50), want.uniform_int(-3, i % 50))
              << i;
          break;
        case 2:
          ASSERT_EQ(rng.exponential(0.25 + i % 7), want.exponential(0.25 + i % 7))
              << i;
          break;
        case 3:
          ASSERT_EQ(rng.weighted_choice(weights), want.weighted_choice(weights))
              << i;
          break;
      }
    }
  }
}

TEST(RngStream, MixMatchesSplitMix64Reference) {
  // Reference values of the SplitMix64 stream seeded with 0 (Vigna's
  // splitmix64.c): mix(0, i) is the (i+1)-th output.
  EXPECT_EQ(RngStream::mix(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(RngStream::mix(0, 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(RngStream::mix(0, 2), 0x06c45d188009454fULL);
  EXPECT_EQ(RngStream(0).seed_for(0), RngStream::mix(0, 0));
}

TEST(RngStream, StreamsAreStatisticallyIndependent) {
  // The first draw of many consecutive run streams must look uniform — this
  // is what decorrelates parallel runs that share a master seed.
  RngStream streams(0xabcdefULL);
  double sum = 0.0;
  int below_half = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    Rng rng = streams.rng(i);
    double u = rng.uniform01();
    sum += u;
    if (u < 0.5) ++below_half;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
  EXPECT_NEAR(below_half / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

}  // namespace
