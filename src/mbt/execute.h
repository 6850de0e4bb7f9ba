// Test execution: driving a black-box implementation under test (IUT)
// through a test case and producing a verdict, plus an LTS-backed IUT
// adapter so the framework can be exercised (and mutation-tested) offline.
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "mbt/testgen.h"

namespace quanta::mbt {

/// The tester's view of a black-box implementation (the testing hypothesis:
/// it behaves like some input-enabled LTS).
class Iut {
 public:
  virtual ~Iut() = default;
  virtual void reset() = 0;
  /// Feeds an input. Returns false if the IUT refused it (a violation of
  /// input-enabledness; treated as a failure by the executor).
  virtual bool stimulus(int label) = 0;
  /// Observes the next output, or nullopt when the IUT is quiescent.
  virtual std::optional<int> observe() = 0;
};

/// IUT simulated from an LTS, resolving nondeterminism randomly.
class LtsIut : public Iut {
 public:
  LtsIut(const Lts& lts, std::uint64_t seed) : lts_(&lts), rng_(seed) {
    reset();
  }
  void reset() override { state_ = lts_->initial(); }
  bool stimulus(int label) override;
  std::optional<int> observe() override;

 private:
  void take_taus();

  const Lts* lts_;
  common::Rng rng_;
  int state_ = 0;
};

enum class Verdict { kPass, kFail };

/// Runs one test case against the IUT (which is reset first).
Verdict execute_test(const TestCase& test, Iut& iut);

struct CampaignResult {
  std::size_t tests = 0;
  std::size_t failures = 0;
  bool passed() const { return failures == 0; }
};

/// Generates and executes `n` randomized tests from the spec. The suite is
/// generated in parallel (see generate_suite); execution against the single
/// stateful IUT is sequential.
CampaignResult run_campaign(const Lts& spec, Iut& iut, std::size_t n,
                            std::uint64_t seed, exec::Executor& ex,
                            const TestGenOptions& opts = {});

}  // namespace quanta::mbt
