// The analysis registry of the service: maps the (engine, model, query)
// names of a request onto the built-in `src/models` instances and the
// library entry points that answer them, producing a canonical cache key,
// its FNV-1a fingerprint (the same accumulator src/ckpt uses) and a
// runnable closure.
//
// Catalogue (engine · model family · query):
//
//   mc   · train-gate-<N> (N 2..8) · mutex        A[] at most one train crossing
//   mc   · train-gate-<N>          · reach-cross  E<> train 0 crossing
//   smc  · train-gate-<N>          · pr-cross     Pr[<= bound](<> train 0 crossing)
//   game · train-game-<N> (N 1..3) · reach-cross  TIGA reachability synthesis
//   cora · train-gate-<N>          · mincost-cross  min-cost reach (Appr/Stop rate 1)
//
// Response stats mapping (Response fields per engine):
//
//   engine | stored         | explored        | transitions      | extra          | value
//   mc     | states stored  | states explored | transitions      | 0              | —
//   smc    | 0              | completed runs  | requested runs   | hits           | p_hat
//   game   | states stored  | states explored | transitions      | winning states | —
//   cora   | states stored  | states explored | transitions      | optimal cost   | —
//
// The cache key covers exactly the inputs that determine a completed
// result: engine, model and query names (a name pins down the whole model
// — models are built in), plus runs/seed/bound for the statistical engine.
// Budgets, priorities, checkpoint cadence and debug pacing are not part of
// the key: a completed run's verdict and statistics are independent of
// them (the resume bit-identity guarantee of src/ckpt).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/budget.h"
#include "common/verdict.h"
#include "svc/request.h"

namespace quanta::svc {

/// Engine-uniform outcome of one executed job.
struct JobResult {
  common::Verdict verdict = common::Verdict::kUnknown;
  common::StopReason stop = common::StopReason::kCompleted;
  std::uint64_t stored = 0;
  std::uint64_t explored = 0;
  std::uint64_t transitions = 0;
  std::int64_t extra = 0;
  bool has_value = false;
  double value = 0.0;
  ckpt::ResumeInfo resume;
};

struct PreparedJob {
  /// Canonical "q1|engine|model|query[|params]" form; what the cache and
  /// the resume token fingerprint.
  std::string cache_key;
  /// FNV-1a digest of cache_key (ckpt::Fingerprint).
  std::uint64_t fingerprint = 0;
  /// Executes the analysis under the given budget/checkpoint policy.
  /// `debug` holds the debug knobs this run honours (nullptr = none); of
  /// them only throttle_us acts here, pacing the symbolic engines through
  /// SearchLimits::pace — the statistical runtime is never paced. Model
  /// construction happens inside the call, so a cache hit never builds a
  /// model.
  std::function<JobResult(const common::Budget& budget,
                          const ckpt::Options& checkpoint,
                          const Request::Debug* debug)>
      run;
};

/// Validates the names/params of `r` against the catalogue above. Unknown
/// engines, model families, out-of-range sizes and engine/query mismatches
/// return nullopt with a diagnostic in *error.
std::optional<PreparedJob> prepare_job(const Request& r, std::string* error);

/// Resume-token form of a job fingerprint: 16 lowercase hex digits. Shared
/// by the server (token validation) and the worker (token attachment).
std::string fingerprint_token(std::uint64_t fingerprint);

/// The budget a job runs under: the request's deadline (counted from this
/// call) and memory ceiling, plus `cancel` when non-null. The server's
/// copy carries its shutdown token; the worker's copy is the one the
/// engine polls.
common::Budget job_budget(const Request& r, const common::CancelToken* cancel);

/// The checkpoint policy of a job: its chain
/// <ckpt_dir>/job-<engine>-<token>.qckpt at the request's cadence, resumed
/// when `resume` is set. One chain per query, so live resumes, crash
/// retries and journal replays all continue the same snapshots. An empty
/// ckpt_dir disables checkpointing.
ckpt::Options job_checkpoint(const std::string& ckpt_dir, const Request& r,
                             std::uint64_t fingerprint, bool resume);

/// Canonical JobResult → Response mapping: definite verdicts require
/// completion; a budget-tripped job that saved a checkpoint carries `token`
/// back as its resume handle. The worker builds every engine answer here.
Response response_from_result(const JobResult& jr, const std::string& token);

/// The answer of a job stopped before it produced a result (a governed
/// exception, a fault, a cancellation): status ok, verdict unknown.
Response stopped_response(common::StopReason reason);

}  // namespace quanta::svc
