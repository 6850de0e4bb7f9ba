// Tests for the parallel statistical execution runtime (src/exec): chunked
// scheduling covers every index exactly once, exceptions propagate,
// cancellation stops outstanding work, per-run RNG streams make estimates /
// CDF series / SPRT verdicts bit-identical across worker counts, and the
// telemetry adds up. The whole suite must be clean under
// QUANTA_SANITIZE=thread (see .github/workflows/ci.yml).
#include "exec/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <stdexcept>
#include <vector>

#include "exec/watchdog.h"

#include "common/fault.h"
#include "common/rng.h"
#include "mbt/testgen.h"
#include "models/brp.h"
#include "models/mbt_models.h"
#include "models/train_gate.h"
#include "smc/cdf.h"
#include "smc/estimate.h"
#include "smc/sprt.h"

namespace {

using namespace quanta;

/// The CI fault matrix sets QUANTA_FAULT for the whole test process, which
/// arms the injector at startup. Disarm before any test runs: this suite's
/// determinism tests match the matrix filters by name only ("Verdict",
/// "Watchdog") and would be poisoned by an arbitrary env-armed fault —
/// FaultInjection.EnvSpecDegradesGracefully (test_robustness) is the test
/// that replays the spec against real engine runs.
[[maybe_unused]] const bool kEnvFaultDisarmed = [] {
  common::FaultInjector::instance().disarm();
  return true;
}();

// ---- scheduling substrate -------------------------------------------------

TEST(ThreadPool, EveryIndexExactlyOnce) {
  constexpr std::uint64_t kN = 100'000;
  exec::Executor ex(4);
  std::vector<std::uint8_t> seen(kN, 0);
  const std::uint64_t completed = ex.for_each(
      0, kN, [&](std::uint64_t i, exec::Executor::WorkerContext&) {
        ++seen[i];  // disjoint per index: no synchronization needed
      });
  EXPECT_EQ(completed, kN);
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), std::uint64_t{0}), kN);
  EXPECT_EQ(*std::max_element(seen.begin(), seen.end()), 1);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  exec::Executor ex(3);
  bool ran = false;
  ex.for_each(5, 5, [&](std::uint64_t, exec::Executor::WorkerContext&) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, WorkerExceptionPropagatesAndPoolSurvives) {
  exec::Executor ex(4);
  auto boom = [](std::uint64_t i, exec::Executor::WorkerContext&) {
    if (i == 1234) throw std::runtime_error("boom");
  };
  EXPECT_THROW(ex.for_each(0, 10'000, boom), std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<std::uint64_t> done{0};
  ex.for_each(0, 1000, [&](std::uint64_t, exec::Executor::WorkerContext&) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 1000u);
}

TEST(ThreadPool, CancellationStopsOutstandingChunks) {
  constexpr std::uint64_t kN = 1'000'000;
  exec::Executor ex(4);
  exec::CancellationToken cancel;
  std::atomic<std::uint64_t> executed{0};
  const std::uint64_t completed = ex.for_each(
      0, kN,
      [&](std::uint64_t, exec::Executor::WorkerContext&) {
        if (executed.fetch_add(1, std::memory_order_relaxed) >= 100) {
          cancel.cancel();
        }
      },
      &cancel);
  EXPECT_LT(executed.load(), kN) << "cancellation did not stop the sweep";
  EXPECT_GE(executed.load(), 100u);
  // The returned count is exactly the runs whose body finished.
  EXPECT_EQ(completed, executed.load());
}

TEST(Executor, WorkerCountOutsideOneTo1024IsRejectedByName) {
  // Checked before any thread starts; 1024 itself is accepted but is not
  // constructed here (it would start 1023 threads).
  for (unsigned bad : {0u, 1025u}) {
    try {
      exec::Executor ex(bad);
      ADD_FAILURE() << bad << " workers accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("workers"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(exec::Executor(1).workers(), 1u);
}

// ---- RNG streams ----------------------------------------------------------

TEST(RngStream, RunStreamsAreReproducibleAndOrderFree) {
  common::RngStream a(0xfeedULL), b(0xfeedULL);
  // Draw the streams in different orders; run i must not care.
  common::Rng a7 = a.rng(7), a3 = a.rng(3);
  common::Rng b3 = b.rng(3), b7 = b.rng(7);
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a7.uniform01(), b7.uniform01());
    EXPECT_EQ(a3.uniform01(), b3.uniform01());
  }
}

TEST(RngStream, SeedsAreDistinctAcrossRunsAndMasters) {
  common::RngStream s(1);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(s.seed_for(i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(common::RngStream(1).seed_for(0), common::RngStream(2).seed_for(0));
}

// ---- bit-identical engines across worker counts ---------------------------

ta::System make_exponential(double rate) {
  ta::System sys;
  ta::ProcessBuilder pb("P");
  int init = pb.location("Init", {}, false, false, rate);
  int done = pb.location("Done");
  pb.edge(init, done, {}, -1, ta::SyncKind::kNone, {}, nullptr, nullptr,
          "fire");
  sys.add_process(pb.build());
  return sys;
}

smc::TimeBoundedReach done_within(const ta::System& sys, double bound) {
  int p = sys.process_index("P");
  int done = sys.process(p).location_index("Done");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, done](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == done;
  };
  return prop;
}

smc::TimeBoundedReach train_crosses(const models::TrainGate& tg, int train,
                                    double bound) {
  int p = tg.trains[static_cast<std::size_t>(train)];
  int cross = tg.system.process(p).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = bound;
  prop.goal = [p, cross](const ta::ConcreteState& s) {
    return s.locs[static_cast<std::size_t>(p)] == cross;
  };
  return prop;
}

TEST(ExecDeterminism, TrainGateEstimateBitIdenticalAcrossWorkerCounts) {
  auto tg = models::make_train_gate(3);
  auto prop = train_crosses(tg, 0, 30.0);
  exec::Executor seq(1);
  auto ref = smc::estimate_probability_runs(tg.system, prop, 1500, 0.05, 42,
                                            seq);
  for (unsigned workers : {2u, 4u, 8u}) {
    exec::Executor ex(workers);
    auto est =
        smc::estimate_probability_runs(tg.system, prop, 1500, 0.05, 42, ex);
    EXPECT_EQ(est.hits, ref.hits) << workers << " workers";
    EXPECT_EQ(est.p_hat, ref.p_hat) << workers << " workers";
    EXPECT_EQ(est.ci_low, ref.ci_low) << workers << " workers";
    EXPECT_EQ(est.ci_high, ref.ci_high) << workers << " workers";
  }
  // A different seed must give a different tally (the streams are live).
  exec::Executor ex8(8);
  auto other =
      smc::estimate_probability_runs(tg.system, prop, 1500, 0.05, 43, ex8);
  EXPECT_NE(other.hits, ref.hits);
}

TEST(ExecDeterminism, CdfSeriesBitIdenticalAcrossWorkerCounts) {
  ta::System sys = make_exponential(1.0);
  auto prop = done_within(sys, 10.0);
  exec::Executor seq(1), par(8);
  auto t1 = smc::sample_hit_times(sys, prop, 4000, 9, seq, {}).times;
  auto t8 = smc::sample_hit_times(sys, prop, 4000, 9, par, {}).times;
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t8[i]);
  auto c1 = smc::empirical_cdf(t1, 4000, 10.0, 11);
  auto c8 = smc::empirical_cdf(t8, 4000, 10.0, 11);
  EXPECT_EQ(c1.prob, c8.prob);
  // And the calibration still holds under per-run seeding.
  for (std::size_t i = 0; i < c1.grid.size(); ++i) {
    EXPECT_NEAR(c1.prob[i], 1.0 - std::exp(-c1.grid[i]), 0.03);
  }
}

TEST(ExecDeterminism, SprtVerdictAndRunCountMatchSequential) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);  // true p ~ 0.632
  smc::SprtOptions opts;
  opts.indifference = 0.05;
  exec::Executor seq(1);
  auto ref_low = smc::sprt_test(sys, prop, 0.4, opts, 7, seq);
  auto ref_high = smc::sprt_test(sys, prop, 0.9, opts, 8, seq);
  EXPECT_EQ(ref_low.verdict, smc::SprtVerdict::kAccepted);
  EXPECT_EQ(ref_high.verdict, smc::SprtVerdict::kRejected);
  for (unsigned workers : {2u, 8u}) {
    exec::Executor ex(workers);
    auto low = smc::sprt_test(sys, prop, 0.4, opts, 7, ex);
    EXPECT_EQ(low.verdict, ref_low.verdict);
    EXPECT_EQ(low.runs, ref_low.runs);
    EXPECT_EQ(low.hits, ref_low.hits);
    auto high = smc::sprt_test(sys, prop, 0.9, opts, 8, ex);
    EXPECT_EQ(high.verdict, ref_high.verdict);
    EXPECT_EQ(high.runs, ref_high.runs);
    EXPECT_EQ(high.hits, ref_high.hits);
  }
}

TEST(ExecDeterminism, BrpSprtStopsEarlyAndMatchesSequential) {
  auto brp = models::make_brp();
  smc::TimeBoundedReach prop;
  prop.time_bound = 64.0;  // the paper's Dmax horizon: success within 64
  prop.goal = [&brp](const ta::ConcreteState& s) {
    return brp.is_success(s.locs);
  };
  smc::SprtOptions opts;
  opts.indifference = 0.02;
  opts.max_runs = 100'000;
  exec::Executor seq(1), par(8);
  auto ref = smc::sprt_test(brp.system, prop, 0.9, opts, 11, seq);
  auto p = smc::sprt_test(brp.system, prop, 0.9, opts, 11, par);
  EXPECT_EQ(ref.verdict, smc::SprtVerdict::kAccepted) << "Dmax ~ 0.9996 >= 0.9";
  EXPECT_EQ(p.verdict, ref.verdict);
  EXPECT_EQ(p.runs, ref.runs);
  EXPECT_EQ(p.hits, ref.hits);
  // Early stopping: nowhere near the max-sample cap.
  EXPECT_LT(p.runs, opts.max_runs / 10);
}

bool same_test_case(const mbt::TestCase& a, const mbt::TestCase& b) {
  if (a.root != b.root || a.nodes.size() != b.nodes.size()) return false;
  for (std::size_t k = 0; k < a.nodes.size(); ++k) {
    const mbt::TestNode &na = a.nodes[k], &nb = b.nodes[k];
    if (na.kind != nb.kind || na.stimulus != nb.stimulus ||
        na.after_stimulus != nb.after_stimulus ||
        na.on_quiescence != nb.on_quiescence || na.on_output != nb.on_output) {
      return false;
    }
  }
  return true;
}

TEST(ExecDeterminism, SuiteGenerationBitIdenticalAcrossWorkerCounts) {
  mbt::Lts spec = models::make_swb_spec();
  exec::Executor seq(1), par(8);
  auto s1 = mbt::generate_suite(spec, 200, 17, seq);
  auto s8 = mbt::generate_suite(spec, 200, 17, par);
  ASSERT_EQ(s1.size(), s8.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_TRUE(same_test_case(s1[i], s8[i])) << "test " << i << " diverged";
  }
  // Distinct indices generate distinct tests at least somewhere.
  bool any_different = false;
  for (std::size_t i = 1; i < s1.size() && !any_different; ++i) {
    any_different = !same_test_case(s1[0], s1[i]);
  }
  EXPECT_TRUE(any_different);
}

// ---- telemetry ------------------------------------------------------------

TEST(RunTelemetry, CountersAddUp) {
  auto tg = models::make_train_gate(3);
  auto prop = train_crosses(tg, 0, 30.0);
  exec::Executor ex(4);
  exec::RunTelemetry tel;
  auto est =
      smc::estimate_probability_runs(tg.system, prop, 500, 0.05, 1, ex, &tel);
  EXPECT_EQ(tel.workers.size(), 4u);
  EXPECT_EQ(tel.runs_completed(), 500u);
  EXPECT_EQ(tel.runs_started(), 500u);
  EXPECT_EQ(tel.hits(), est.hits);
  EXPECT_GT(tel.sim_steps(), 0u);
  EXPECT_GT(tel.wall_seconds, 0.0);
  EXPECT_GT(tel.runs_per_second(), 0.0);
  EXPECT_FALSE(tel.summary().empty());
}

// ---- shutdown / cancellation races ----------------------------------------

TEST(ThreadPool, ShutdownWithPendingWorkJoinsCleanly) {
  // Destroy the pool while a cancelled job still has unclaimed chunks: the
  // destructor must join every worker without touching the abandoned range.
  std::atomic<std::uint64_t> done{0};
  {
    exec::Executor ex(4);
    exec::CancellationToken cancel;
    std::thread canceller([&] {
      while (done.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      cancel.cancel();
    });
    ex.for_each(
        0, 10'000'000,
        [&](std::uint64_t, exec::Executor::WorkerContext&) {
          done.fetch_add(1, std::memory_order_relaxed);
        },
        &cancel);
    canceller.join();
    // Executor destroyed here with most of the range never claimed.
  }
  EXPECT_GT(done.load(), 0u);
  EXPECT_LT(done.load(), 10'000'000u);
}

TEST(ThreadPool, CancelVersusSubmitRaceStress) {
  // Loop a racy cancel against job start/finish; under QUANTA_SANITIZE=thread
  // this is the test that would flag any unsynchronized pool state.
  exec::Executor ex(4);
  for (int round = 0; round < 50; ++round) {
    exec::CancellationToken cancel;
    std::atomic<std::uint64_t> seen{0};
    std::thread racer([&] { cancel.cancel(); });
    ex.for_each(
        0, 5'000,
        [&](std::uint64_t, exec::Executor::WorkerContext&) {
          seen.fetch_add(1, std::memory_order_relaxed);
        },
        &cancel);
    racer.join();
    // Cancellation is advisory: anywhere from 0 to all runs may have landed,
    // but the pool must stay consistent for the next round.
    EXPECT_LE(seen.load(), 5'000u);
  }
  // After 50 racy rounds an uncancelled job still covers the full range.
  std::atomic<std::uint64_t> full{0};
  ex.for_each(0, 5'000, [&](std::uint64_t, exec::Executor::WorkerContext&) {
    full.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(full.load(), 5'000u);
}

TEST(Executor, TelemetryOutlivesTheExecutor) {
  // Destruction order: the telemetry sink belongs to the caller and must be
  // complete (not written concurrently) once for_each returned, even after
  // the executor itself is gone.
  exec::RunTelemetry tel;
  {
    exec::Executor ex(3);
    ex.for_each(
        0, 1'000,
        [](std::uint64_t, exec::Executor::WorkerContext& ctx) {
          ctx.telemetry->sim_steps += 1;
        },
        nullptr, &tel);
  }
  EXPECT_EQ(tel.runs_completed(), 1'000u);
  EXPECT_EQ(tel.sim_steps(), 1'000u);
  EXPECT_EQ(tel.workers.size(), 3u);
}

TEST(RunTelemetry, AccumulatesAcrossSprtBatches) {
  ta::System sys = make_exponential(0.5);
  auto prop = done_within(sys, 2.0);
  smc::SprtOptions opts;
  opts.indifference = 0.05;
  opts.batch_size = 32;  // force several batches
  exec::Executor ex(2);
  exec::RunTelemetry tel;
  auto r = smc::sprt_test(sys, prop, 0.4, opts, 7, ex, &tel);
  // Whole batches are simulated; the walk may consume only a prefix.
  EXPECT_GE(tel.runs_completed(), r.runs);
  EXPECT_GE(tel.hits(), r.hits);
  EXPECT_GT(tel.wall_seconds, 0.0);
}

// ---- QUANTA_JOBS parsing --------------------------------------------------

/// Sets (or unsets, for nullptr) an environment variable for one scope and
/// restores the previous state on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

unsigned hardware_fallback() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

TEST(ThreadPool, QuantaJobsWholePositiveNumberIsUsed) {
  ScopedEnv env("QUANTA_JOBS", "3");
  EXPECT_EQ(exec::default_worker_count(), 3u);
}

TEST(ThreadPool, QuantaJobsIsClampedTo1024) {
  ScopedEnv env("QUANTA_JOBS", "99999");
  EXPECT_EQ(exec::default_worker_count(), 1024u);
}

TEST(ThreadPool, QuantaJobsMalformedValuesFallBackToHardwareConcurrency) {
  const unsigned hw = hardware_fallback();
  // Non-numeric, empty, zero, negative, trailing garbage and out-of-range
  // values must all be rejected as a whole, never half-parsed.
  for (const char* bad : {"", "abc", "0", "-4", "4x", "2.5", "0x10",
                          "999999999999999999999999"}) {
    ScopedEnv env("QUANTA_JOBS", bad);
    EXPECT_EQ(exec::default_worker_count(), hw) << "value: \"" << bad << '"';
  }
}

TEST(ThreadPool, QuantaJobsUnsetFallsBackToHardwareConcurrency) {
  ScopedEnv env("QUANTA_JOBS", nullptr);
  EXPECT_EQ(exec::default_worker_count(), hardware_fallback());
}

// ---- watchdog / cancel-token ownership ------------------------------------

// Regression: the watchdog must never reset its target, and a token left
// cancelled by run N must be reset by its owner or it stops run N+1 at the
// very first poll. (Engines avoid this internally by creating a fresh
// watchdog target per call — see the next test.)
TEST(ExecWatchdog, WatchdogDoesNotResetTargetAcrossRuns) {
  common::CancelToken external;
  common::CancelToken target;
  common::Budget watched;
  watched.with_cancel(&external);
  {
    exec::Watchdog wd(watched, target);
    external.cancel();
    for (int i = 0; i < 2000 && !target.cancelled(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(target.cancelled());
    EXPECT_EQ(wd.fired_reason(), common::StopReason::kCancelled);
  }
  // The destructor joined the poll thread but left the target fired.
  EXPECT_TRUE(target.cancelled());

  // Run N+1 reusing the fired token is dead on arrival until reset().
  common::Budget next;
  next.with_cancel(&target);
  EXPECT_EQ(next.poll(0), common::StopReason::kCancelled);
  target.reset();
  EXPECT_EQ(next.poll(0), common::StopReason::kCompleted);
}

TEST(ExecWatchdog, PreTrippedBudgetRunsNothing) {
  // A budget that is already tripped on entry must stop every SMC entry
  // point before its first run, however the watchdog thread happens to be
  // scheduled: the batch driver polls the budget before each batch, and the
  // watchdog polls once before the executor starts.
  auto tg = models::make_train_gate(2);
  auto prop = train_crosses(tg, 0, 30.0);
  exec::Executor ex(2);

  common::CancelToken cancelled;
  cancelled.cancel();
  common::Budget pre_cancelled;
  pre_cancelled.with_cancel(&cancelled);
  common::Budget expired;
  expired.with_deadline_at(common::Budget::Clock::now() -
                           std::chrono::seconds(1));
  struct Case {
    const common::Budget* budget;
    common::StopReason stop;
  };
  for (const Case& c : {Case{&pre_cancelled, common::StopReason::kCancelled},
                        Case{&expired, common::StopReason::kTimeLimit}}) {
    for (int i = 0; i < 200; ++i) {
      const auto est = smc::estimate_probability_runs(
          tg.system, prop, 400, 0.05, 7, ex, nullptr, *c.budget);
      ASSERT_EQ(est.completed, 0u) << "estimate, repeat " << i;
      ASSERT_EQ(est.stop, c.stop) << "estimate, repeat " << i;
      const auto hits =
          smc::sample_hit_times(tg.system, prop, 400, 7, ex, *c.budget);
      ASSERT_EQ(hits.completed, 0u) << "cdf, repeat " << i;
      ASSERT_EQ(hits.stop, c.stop) << "cdf, repeat " << i;
      const auto test =
          smc::sprt_test(tg.system, prop, 0.5, {}, 7, ex, nullptr, *c.budget);
      ASSERT_EQ(test.runs, 0u) << "sprt, repeat " << i;
      ASSERT_EQ(test.stop, c.stop) << "sprt, repeat " << i;
    }
  }
}

// A stopped run keeps a prefix of whole batches, so its numbers do not
// depend on the worker count. A kDeadline fault at the third visit of an
// engine's batch site stops it at a fixed boundary, after two batches.
TEST(SmcDriver, StoppedResultsMatchAcrossWorkerCounts) {
  struct Disarm {
    ~Disarm() { common::FaultInjector::instance().disarm(); }
  } disarm;
  const auto stop_at_third_batch = [](const char* site) {
    common::FaultInjector::instance().arm(site, common::FaultKind::kDeadline,
                                          3);
  };
  const auto budget = common::Budget::deadline_after(std::chrono::hours(1));
  auto tg = models::make_train_gate(2);
  const auto cross = train_crosses(tg, 0, 30.0);
  // SPRT parameters that cannot decide within a few hundred runs: theta at
  // the true probability (1 - e^-1) and boundaries ~20.7 wide.
  ta::System expo = make_exponential(0.5);
  const auto done = done_within(expo, 2.0);
  smc::SprtOptions opts;
  opts.alpha = 1e-9;
  opts.beta = 1e-9;
  opts.indifference = 0.005;
  opts.max_runs = 100'000;
  opts.batch_size = 64;

  smc::Estimate est_ref;
  smc::HitTimesResult times_ref;
  smc::SprtResult sprt_ref;
  for (unsigned workers : {1u, 2u, 4u}) {
    exec::Executor ex(workers);
    stop_at_third_batch("smc.estimate.batch");
    const auto est = smc::estimate_probability_runs(tg.system, cross, 5000,
                                                    0.05, 7, ex, nullptr,
                                                    budget);
    EXPECT_EQ(est.stop, common::StopReason::kTimeLimit) << workers;
    EXPECT_EQ(est.completed, 2048u) << workers;
    stop_at_third_batch("smc.cdf.batch");
    const auto times =
        smc::sample_hit_times(tg.system, cross, 5000, 7, ex, budget);
    EXPECT_EQ(times.stop, common::StopReason::kTimeLimit) << workers;
    EXPECT_EQ(times.completed, 2048u) << workers;
    stop_at_third_batch("smc.sprt.batch");
    const auto sprt =
        smc::sprt_test(expo, done, 0.632, opts, 7, ex, nullptr, budget);
    EXPECT_EQ(sprt.stop, common::StopReason::kTimeLimit) << workers;
    EXPECT_EQ(sprt.runs, 128u) << workers;
    if (workers == 1) {
      est_ref = est;
      times_ref = times;
      sprt_ref = sprt;
      continue;
    }
    EXPECT_EQ(est.hits, est_ref.hits) << workers;
    EXPECT_EQ(est.p_hat, est_ref.p_hat) << workers;
    EXPECT_EQ(times.completed, times_ref.completed) << workers;
    EXPECT_EQ(times.times, times_ref.times) << workers;
    EXPECT_EQ(sprt.runs, sprt_ref.runs) << workers;
    EXPECT_EQ(sprt.hits, sprt_ref.hits) << workers;
    EXPECT_EQ(sprt.verdict, sprt_ref.verdict) << workers;
  }
  EXPECT_EQ(sprt_ref.verdict, smc::SprtVerdict::kInconclusive);
  EXPECT_FALSE(times_ref.times.empty());
}

// Regression: a cancelled estimate must not poison the next estimate on the
// same executor — the internal watchdog target is per-call, so after the
// caller resets their own token the resumed run N+1 completes normally.
TEST(ExecWatchdog, CancelledRunDoesNotPoisonTheNextRun) {
  auto tg = models::make_train_gate(2);
  auto prop = train_crosses(tg, 0, 30.0);
  exec::Executor ex(2);

  common::CancelToken user;
  user.cancel();  // run N: cancelled before it can complete the sample
  common::Budget b;
  b.with_cancel(&user);
  auto aborted =
      smc::estimate_probability_runs(tg.system, prop, 400, 0.05, 7, ex,
                                     nullptr, b);
  EXPECT_EQ(aborted.verdict, common::Verdict::kUnknown);
  EXPECT_EQ(aborted.stop, common::StopReason::kCancelled);
  EXPECT_LT(aborted.completed, 400u);

  user.reset();  // owner's duty between runs
  auto resumed =
      smc::estimate_probability_runs(tg.system, prop, 400, 0.05, 7, ex,
                                     nullptr, b);
  EXPECT_EQ(resumed.verdict, common::Verdict::kHolds);
  EXPECT_EQ(resumed.completed, 400u);

  // And an ungoverned run on the same executor is equally unaffected.
  auto clean = smc::estimate_probability_runs(tg.system, prop, 400, 0.05, 7,
                                              ex);
  EXPECT_EQ(clean.hits, resumed.hits);
}

}  // namespace
