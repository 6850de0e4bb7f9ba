// Random number generation used by the statistical engines (SMC, modes DES,
// test generation): a seedable generator whose stream is exactly
// std::mt19937_64's, so that every experiment is reproducible from a single
// seed and matches the stream of the standard engine.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace quanta::common {

/// The 64-bit Mersenne Twister (MT19937-64), output-identical to
/// std::mt19937_64 for every seed. The standard engine regenerates all 312
/// state words at once on the first draw of each block of 312; this one
/// twists the single word it is about to return. Word p of the next block
/// depends only on words p and p+1 of the current block and on word p+m —
/// still from the current block when p+m < n, already regenerated
/// otherwise — so twisting in index order reproduces the block twist
/// exactly, while seeding costs no twist at all (one SMC run seeds a fresh
/// stream and draws a few dozen numbers).
class Mt64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kDefaultSeed = 5489u;

  explicit Mt64(std::uint64_t seed = kDefaultSeed) { seed_in_place(seed); }

  /// The std::mt19937_64 seed sequence (Knuth's multiplicative recurrence).
  void seed_in_place(std::uint64_t seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
    p_ = 0;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    constexpr std::uint64_t kLower = ~kUpper;
    constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
    const std::size_t p = p_;
    const std::size_t next = p + 1 == kN ? 0 : p + 1;
    const std::size_t far = p < kN - kM ? p + kM : p + kM - kN;
    const std::uint64_t y = (x_[p] & kUpper) | (x_[next] & kLower);
    std::uint64_t z = x_[far] ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
    x_[p] = z;
    p_ = next;
    // Tempering.
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  std::array<std::uint64_t, kN> x_;
  std::size_t p_ = 0;  ///< index of the next word to twist and return
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) : engine_(seed) {}

  /// Restarts the stream from `seed` in place, as if freshly constructed.
  void reseed(std::uint64_t seed) { engine_.seed_in_place(seed); }

  /// Uniform real in [0, 1).
  double uniform01() { return uniform_(engine_); }

  /// Uniform real in [lo, hi]. Requires lo <= hi.
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Exponentially distributed delay with the given rate (> 0).
  double exponential(double rate);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Index drawn according to (unnormalised, non-negative) weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_choice(std::span<const double> weights) {
    return weighted_choice(weights, [](double w) { return w; });
  }

  /// Same draw over `items`, weighing item i by weight_of(items[i]) — lets
  /// callers draw from records that carry a weight without copying the
  /// weights out first.
  template <typename Items, typename WeightOf>
  std::size_t weighted_choice(const Items& items, WeightOf weight_of) {
    double total = 0.0;
    for (const auto& item : items) {
      const double w = weight_of(item);
      if (w < 0.0) throw_negative_weight(w);
      total += w;
    }
    if (total <= 0.0) throw_zero_weights(std::size(items));
    const double target = uniform01() * total;
    double acc = 0.0;
    std::size_t i = 0;
    for (const auto& item : items) {
      acc += weight_of(item);
      if (target < acc) return i;
      ++i;
    }
    return std::size(items) - 1;  // numerical edge: target == total
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform01() < p; }

 private:
  [[noreturn]] static void throw_negative_weight(double w);
  [[noreturn]] static void throw_zero_weights(std::size_t n);

  Mt64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

/// Counter-based splittable seeding: `RngStream(master).seed_for(i)` is the
/// (i+1)-th output of SplitMix64 seeded with `master`, so run i always draws
/// from the same stream regardless of chunking, thread count, or execution
/// order — the keystone of the parallel/sequential bit-identity of the
/// statistical engines (src/exec). Streams of distinct indices are
/// decorrelated by the SplitMix64 finalizer (an avalanching bijection).
class RngStream {
 public:
  explicit RngStream(std::uint64_t master_seed) : master_(master_seed) {}

  /// Stateless SplitMix64 output for the given (seed, counter) pair.
  static std::uint64_t mix(std::uint64_t seed, std::uint64_t counter) {
    std::uint64_t z = seed + (counter + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t master_seed() const { return master_; }
  std::uint64_t seed_for(std::uint64_t index) const {
    return mix(master_, index);
  }
  /// The independent generator of run `index`.
  Rng rng(std::uint64_t index) const { return Rng(seed_for(index)); }

 private:
  std::uint64_t master_;
};

}  // namespace quanta::common
