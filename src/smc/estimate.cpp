#include "smc/estimate.h"

#include "ckpt/io.h"
#include "ckpt/snapshot_ta.h"
#include "common/stats.h"
#include "smc/batch_driver.h"
#include "smc/validate.h"

namespace quanta::smc {

namespace {

/// Section of a Provider::kStatistical checkpoint: the prefix-contiguous
/// tally (requested runs, completed runs, hits).
constexpr std::uint32_t kSecSmcTally = 1;

/// Batch granularity. Batches bound both how much work a crash can lose and
/// how stale a budget stop can be (the driver polls the budget between
/// batches in addition to the watchdog).
constexpr std::uint64_t kBatch = 1024;

std::uint64_t estimate_fingerprint(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed) {
  ckpt::Fingerprint fp;
  fp.mix(0x534D4300u)
      .mix(ckpt::fingerprint(sys))
      .mix_f64(prop.time_bound)
      .mix(runs)
      .mix_f64(alpha)
      .mix(seed)
      .mix_str(prop.goal.canonical());
  return fp.digest();
}

/// Simulates the sample through the batch driver; any stop leaves a tally
/// over the prefix [0, completed) of whole batches. A checkpoint, when
/// enabled, snapshots that prefix and a resumed call starts after it.
Estimate estimate_impl(const ta::System& sys, const TimeBoundedReach& prop,
                       std::size_t runs, double alpha, std::uint64_t seed,
                       exec::Executor& ex, exec::RunTelemetry* telemetry,
                       const common::Budget& budget,
                       const ckpt::Options& checkpoint) {
  Estimate est;
  est.runs = runs;
  est.resume.path = checkpoint.path;
  const std::uint64_t fp =
      checkpoint.enabled()
          ? estimate_fingerprint(sys, prop, runs, alpha, seed)
          : 0;

  std::uint64_t done = 0;
  std::uint64_t hits = 0;
  if (checkpoint.enabled() && checkpoint.resume) {
    ckpt::Snapshot snap;
    est.resume.load = ckpt::load(checkpoint.path, fp,
                                 ckpt::Provider::kStatistical, &snap);
    if (est.resume.load == ckpt::LoadStatus::kOk) {
      const ckpt::Section* sec = snap.find(kSecSmcTally);
      bool ok = false;
      if (sec != nullptr) {
        ckpt::io::Reader r(sec->payload);
        const std::uint64_t saved_runs = r.u64();
        const std::uint64_t saved_done = r.u64();
        const std::uint64_t saved_hits = r.u64();
        if (r.ok() && saved_runs == runs && saved_done <= runs &&
            saved_hits <= saved_done) {
          done = saved_done;
          hits = saved_hits;
          est.resume.resumed = true;
          ok = true;
        }
      }
      if (!ok) est.resume.load = ckpt::LoadStatus::kCorrupt;
    }
  }

  auto save_ckpt = [&]() {
    ckpt::Snapshot snap;
    snap.provider = ckpt::Provider::kStatistical;
    snap.fingerprint = fp;
    ckpt::io::Writer w;
    w.u64(runs);
    w.u64(done);
    w.u64(hits);
    snap.add_section(kSecSmcTally, std::move(w));
    if (ckpt::save(checkpoint.path, snap)) est.resume.saved = true;
  };

  const std::uint64_t interval = checkpoint.enabled() ? checkpoint.interval : 0;
  std::uint64_t runs_since_save = 0;
  est.stop = internal::run_batches(
      sys, prop, seed, done, runs, kBatch, ex, budget, telemetry,
      "smc.estimate.batch",
      [&](std::span<const RunResult> batch) {
        done += batch.size();
        for (const RunResult& r : batch) hits += r.satisfied ? 1 : 0;
        if (interval > 0) {
          runs_since_save += batch.size();
          if (runs_since_save >= interval) {
            runs_since_save = 0;
            save_ckpt();
          }
        }
        return internal::BatchStep::kContinue;
      });

  est.completed = done;
  est.hits = hits;
  if (done == runs) {
    est.verdict = common::Verdict::kHolds;
  } else if (checkpoint.enabled() && checkpoint.save_on_stop) {
    save_ckpt();
  }
  if (done > 0) {
    est.p_hat = static_cast<double>(hits) / static_cast<double>(done);
    auto [lo, hi] = common::clopper_pearson(hits, done, alpha);
    est.ci_low = lo;
    est.ci_high = hi;
  }
  return est;
}

}  // namespace

Estimate estimate_probability_runs(const ta::System& sys,
                                   const TimeBoundedReach& prop,
                                   std::size_t runs, double alpha,
                                   std::uint64_t seed, exec::Executor& ex,
                                   exec::RunTelemetry* telemetry,
                                   const common::Budget& budget,
                                   const ckpt::Options& checkpoint) {
  internal::require_unit_open("smc.estimate_probability_runs", "alpha", alpha);
  internal::require_positive("smc.estimate_probability_runs", "runs", runs);
  return common::governed(
      [&] {
        return estimate_impl(sys, prop, runs, alpha, seed, ex, telemetry,
                             budget, checkpoint);
      },
      [runs, &checkpoint](common::StopReason r) {
        Estimate est;
        est.runs = runs;
        est.stop = r;
        est.resume.path = checkpoint.path;
        return est;
      });
}

Estimate estimate_probability(const ta::System& sys,
                              const TimeBoundedReach& prop, double epsilon,
                              double delta, std::uint64_t seed,
                              exec::Executor& ex,
                              exec::RunTelemetry* telemetry,
                              const common::Budget& budget) {
  internal::require_unit_open("smc.estimate_probability", "epsilon", epsilon);
  internal::require_unit_open("smc.estimate_probability", "delta", delta);
  std::size_t runs = common::chernoff_sample_count(epsilon, delta);
  return estimate_probability_runs(sys, prop, runs, delta, seed, ex, telemetry,
                                   budget);
}

}  // namespace quanta::smc
