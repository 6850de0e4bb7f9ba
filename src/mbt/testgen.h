// Test-case generation from a specification LTS — Tretmans' algorithm: a
// test case is a finite tree that at every point either stops (pass),
// stimulates the implementation with an input, or observes; observed
// outputs allowed by the spec continue the test, others fail. Generated
// test suites are sound by construction (they fail only non-ioco
// implementations) and exhaustive in the limit.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "mbt/suspension.h"

namespace quanta::mbt {

struct TestNode {
  enum class Kind { kPass, kStimulate, kObserve };
  Kind kind = Kind::kPass;
  // kStimulate:
  int stimulus = -1;
  int after_stimulus = -1;
  /// Outputs that may race the stimulus; missing outputs mean failure.
  std::map<int, int> on_output;  ///< also used by kObserve
  /// kObserve: continuation when quiescence is observed (-1 = fail).
  int on_quiescence = -1;
};

/// A tree-shaped test case; node 0 is the root.
struct TestCase {
  std::vector<TestNode> nodes;
  int root = 0;
};

struct TestGenOptions {
  int max_depth = 12;
  /// Probability of choosing to stimulate (vs observe) when both possible.
  double stimulate_bias = 0.5;
  /// Probability of stopping early at any point (keeps trees finite even
  /// without the depth bound).
  double stop_probability = 0.05;
};

class TestGenerator {
 public:
  TestGenerator(const Lts& spec, std::uint64_t seed,
                const TestGenOptions& opts = {});

  /// Generates one randomized test case from the specification.
  TestCase generate();

  /// Restarts the random stream (used by the parallel suite generator to
  /// derive test i from RngStream(seed).seed_for(i) while reusing one
  /// generator — and its suspension automaton — per worker).
  void reseed(std::uint64_t seed) { rng_.reseed(seed); }

  const SuspensionAutomaton& suspension() const { return sa_; }

 private:
  int build(TestCase& tc, int spec_state, int depth);

  SuspensionAutomaton sa_;
  TestGenOptions opts_;
  common::Rng rng_;
};

/// Generates `n` randomized test cases in parallel on the executor. Test i
/// depends only on (spec, seed, i, opts) — the suite is bit-identical for
/// every worker count, and each worker builds the suspension automaton once.
std::vector<TestCase> generate_suite(const Lts& spec, std::size_t n,
                                     std::uint64_t seed, exec::Executor& ex,
                                     const TestGenOptions& opts = {},
                                     exec::RunTelemetry* telemetry = nullptr);

}  // namespace quanta::mbt
