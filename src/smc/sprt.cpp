#include "smc/sprt.h"

#include <cmath>
#include <stdexcept>

#include "ckpt/io.h"
#include "ckpt/snapshot_ta.h"
#include "smc/batch_driver.h"
#include "smc/validate.h"

namespace quanta::smc {

void SprtOptions::validate(double theta) const {
  internal::require_unit_open("smc.sprt_test", "alpha", alpha);
  internal::require_unit_open("smc.sprt_test", "beta", beta);
  internal::require_unit_open("smc.sprt_test", "indifference", indifference);
  internal::require_positive("smc.sprt_test", "max_runs", max_runs);
  const double p0 = theta + indifference;
  const double p1 = theta - indifference;
  if (p1 <= 0.0 || p0 >= 1.0) {
    throw std::invalid_argument(quanta::context(
        "smc.sprt_test", "the indifference region [theta - delta, theta + "
        "delta] = [", p1, ", ", p0, "] must lie inside (0, 1); shrink "
        "indifference or move theta away from the boundary"));
  }
}

namespace {

/// Section of a Provider::kSprt checkpoint: the exact position of the
/// in-order LLR walk — (max_runs, runs consumed, hits, LLR bit pattern).
/// Persisting the LLR as its IEEE-754 bits (not re-accumulating it from the
/// tally) keeps the resumed walk's floating-point trajectory identical to
/// the uninterrupted one.
constexpr std::uint32_t kSecSprtWalk = 1;

std::uint64_t sprt_fingerprint(const ta::System& sys,
                               const TimeBoundedReach& prop, double theta,
                               const SprtOptions& opts, std::uint64_t seed) {
  ckpt::Fingerprint fp;
  fp.mix(0x53505254u)  // "SPRT"
      .mix(ckpt::fingerprint(sys))
      .mix_f64(prop.time_bound)
      .mix_f64(theta)
      .mix_f64(opts.alpha)
      .mix_f64(opts.beta)
      .mix_f64(opts.indifference)
      .mix(opts.max_runs)
      .mix(opts.batch_size)
      .mix(seed)
      .mix_str(prop.goal.canonical());
  return fp.digest();
}

SprtResult sprt_test_impl(const ta::System& sys, const TimeBoundedReach& prop,
                          double theta, const SprtOptions& opts,
                          std::uint64_t seed, exec::Executor& ex,
                          exec::RunTelemetry* telemetry,
                          const common::Budget& budget) {
  const double p0 = theta + opts.indifference;  // H0
  const double p1 = theta - opts.indifference;  // H1
  // Wald boundaries on the log-likelihood ratio log(P[obs|H1]/P[obs|H0]).
  const double log_a = std::log((1.0 - opts.beta) / opts.alpha);
  const double log_b = std::log(opts.beta / (1.0 - opts.alpha));
  const double inc_hit = std::log(p1 / p0);
  const double inc_miss = std::log((1.0 - p1) / (1.0 - p0));

  SprtResult result;
  result.resume.path = opts.checkpoint.path;
  double llr = 0.0;
  const std::uint64_t fp =
      opts.checkpoint.enabled()
          ? sprt_fingerprint(sys, prop, theta, opts, seed)
          : 0;
  // Resume restarts the batch grid at the saved walk position. Run i is a
  // pure function of (seed, i) and the LLR walk consumes runs strictly in
  // order, so the position alone — regardless of where inside a batch the
  // interrupted test stopped — reproduces the uninterrupted trajectory.
  if (opts.checkpoint.enabled() && opts.checkpoint.resume) {
    ckpt::Snapshot snap;
    result.resume.load = ckpt::load(opts.checkpoint.path, fp,
                                    ckpt::Provider::kSprt, &snap);
    if (result.resume.load == ckpt::LoadStatus::kOk) {
      bool ok = false;
      if (const ckpt::Section* sec = snap.find(kSecSprtWalk)) {
        ckpt::io::Reader r(sec->payload);
        const std::uint64_t saved_cap = r.u64();
        const std::uint64_t saved_runs = r.u64();
        const std::uint64_t saved_hits = r.u64();
        const double saved_llr = r.f64();
        if (r.ok() && saved_cap == opts.max_runs &&
            saved_runs <= opts.max_runs && saved_hits <= saved_runs) {
          result.runs = static_cast<std::size_t>(saved_runs);
          result.hits = static_cast<std::size_t>(saved_hits);
          llr = saved_llr;
          result.resume.resumed = true;
          ok = true;
        }
      }
      if (!ok) result.resume.load = ckpt::LoadStatus::kCorrupt;
    }
  }

  auto save_walk = [&]() {
    ckpt::Snapshot snap;
    snap.provider = ckpt::Provider::kSprt;
    snap.fingerprint = fp;
    ckpt::io::Writer w;
    w.u64(opts.max_runs);
    w.u64(result.runs);
    w.u64(result.hits);
    w.f64(llr);
    snap.add_section(kSecSprtWalk, std::move(w));
    if (ckpt::save(opts.checkpoint.path, snap)) result.resume.saved = true;
  };
  const std::uint64_t interval =
      opts.checkpoint.enabled() ? opts.checkpoint.interval : 0;
  std::uint64_t since_save = 0;

  const std::uint64_t batch = opts.batch_size > 0 ? opts.batch_size : 128;
  result.stop = internal::run_batches(
      sys, prop, seed, result.runs, opts.max_runs, batch, ex, budget,
      telemetry, "smc.sprt.batch",
      [&](std::span<const RunResult> runs) {
        // Walk the merged batch in run order — exactly the sequential SPRT.
        for (const RunResult& r : runs) {
          ++result.runs;
          if (r.satisfied) {
            ++result.hits;
            llr += inc_hit;
          } else {
            llr += inc_miss;
          }
          if (llr >= log_a) {
            // Evidence for H1: p < theta.
            result.verdict = SprtVerdict::kRejected;
          } else if (llr <= log_b) {
            // Evidence for H0: p > theta.
            result.verdict = SprtVerdict::kAccepted;
          }
          // Early stop: no further batch once a boundary is crossed.
          if (result.verdict != SprtVerdict::kInconclusive) {
            return internal::BatchStep::kStop;
          }
          if (interval != 0 && ++since_save >= interval) {
            since_save = 0;
            save_walk();
          }
        }
        return internal::BatchStep::kContinue;
      });
  if (result.verdict != SprtVerdict::kInconclusive) return result;
  if (result.stop == common::StopReason::kCompleted) {
    // max_runs exhausted: the test is over (inconclusive), nothing to resume.
    result.stop = common::StopReason::kStateLimit;
  } else if (opts.checkpoint.enabled() && opts.checkpoint.save_on_stop) {
    save_walk();
  }
  return result;
}

}  // namespace

SprtResult sprt_test(const ta::System& sys, const TimeBoundedReach& prop,
                     double theta, const SprtOptions& opts, std::uint64_t seed,
                     exec::Executor& ex, exec::RunTelemetry* telemetry,
                     const common::Budget& budget) {
  opts.validate(theta);
  return common::governed(
      [&] {
        return sprt_test_impl(sys, prop, theta, opts, seed, ex, telemetry,
                              budget);
      },
      [&opts](common::StopReason r) {
        SprtResult result;
        result.stop = r;
        result.resume.path = opts.checkpoint.path;
        return result;
      });
}

}  // namespace quanta::smc
