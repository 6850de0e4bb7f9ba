#include "common/rng.h"

#include <cmath>
#include <stdexcept>

#include "common/error.h"

namespace quanta::common {

double Rng::exponential(double rate) {
  if (rate <= 0.0) {
    throw std::invalid_argument(quanta::context(
        "common.rng", "Rng::exponential: rate must be positive, got ", rate));
  }
  // Inverse transform sampling; guard against log(0).
  double u = uniform01();
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return -std::log(u) / rate;
}

int Rng::uniform_int(int lo, int hi) {
  if (lo > hi) {
    throw std::invalid_argument(quanta::context(
        "common.rng", "Rng::uniform_int: empty range [", lo, ", ", hi, "]"));
  }
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

void Rng::throw_negative_weight(double w) {
  throw std::invalid_argument(quanta::context(
      "common.rng", "Rng::weighted_choice: negative weight ", w));
}

void Rng::throw_zero_weights(std::size_t n) {
  throw std::invalid_argument(quanta::context(
      "common.rng", "Rng::weighted_choice: all ", n, " weights are zero"));
}

}  // namespace quanta::common
