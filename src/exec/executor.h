// Executor: the parallel statistical runtime (src/exec). It hands each run
// index of [begin, end) to a body exactly once, fills per-worker telemetry
// slots, and polls cancellation between runs. Engines pair it with
// common::RngStream so run i draws the same random stream regardless of
// chunking, worker count or execution order — parallel and sequential
// results are bit-identical by construction.
//
// Scheduling: a fixed set of worker threads pulls half-open index ranges
// from a shared atomic cursor (guided self-scheduling: each claim takes
// remaining/(4*workers), at least one index), so late stragglers get small
// chunks and the workers load-balance without a work-stealing deque. The
// caller of for_each participates as worker 0, which makes a 1-worker
// executor run entirely inline on the calling thread and start no thread:
// the sequential path of every engine is just a 1-worker executor.
//
// Every engine entry point takes the executor from its caller; nothing in
// the engines sizes threads on its own.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "exec/telemetry.h"

namespace quanta::exec {

/// Cooperative cancellation flag shared between the scheduler and its
/// consumers. Workers poll it between chunks and between individual runs;
/// outstanding chunks that were never claimed are simply abandoned.
/// Cancellation is advisory: work already inside the body runs to the next
/// poll point.
///
/// This is the one cancellation type of the whole toolkit: the same token
/// lives inside common::Budget, so a watchdog (exec/watchdog.h) or a user
/// cancels a symbolic search and a statistical executor job alike.
using CancellationToken = common::CancelToken;

class Executor {
 public:
  /// What a run body sees besides its index: the worker it landed on, that
  /// worker's private telemetry slot, and the job's cancellation token (null
  /// when the caller passed none).
  struct WorkerContext {
    unsigned worker_id = 0;
    WorkerTelemetry* telemetry = nullptr;
    CancellationToken* cancel = nullptr;
  };

  using RunFn = std::function<void(std::uint64_t, WorkerContext&)>;

  /// `workers` must lie in [1, 1024] (std::invalid_argument naming
  /// `workers` otherwise, thrown before any thread starts). An executor of
  /// n workers owns n-1 background threads; the caller of for_each is
  /// worker 0.
  explicit Executor(unsigned workers);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  unsigned workers() const { return workers_; }

  /// Runs body(i, ctx) for each i in [begin, end) and returns how many runs
  /// completed: end - begin unless `cancel` fired first. Telemetry (when
  /// non-null) is *accumulated*, so one RunTelemetry can span several jobs
  /// (e.g. all batches of an SPRT test). If a body throws, the first
  /// exception is rethrown here and the remaining chunks are abandoned.
  /// Concurrent callers are serialized (the executor runs one job at a
  /// time).
  std::uint64_t for_each(std::uint64_t begin, std::uint64_t end,
                         const RunFn& body,
                         CancellationToken* cancel = nullptr,
                         RunTelemetry* telemetry = nullptr);

 private:
  /// One cache-line-padded telemetry slot per worker: the hot path
  /// increments plain integers, and the slots are only read after the job.
  struct Slot {
    alignas(64) WorkerTelemetry t;
  };

  void worker_loop(unsigned id);
  /// One worker draining the current job's cursor.
  void drain(unsigned id);
  bool claim(std::uint64_t* b, std::uint64_t* e);
  void run_chunk(std::uint64_t b, std::uint64_t e, unsigned id);

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wait on it
  unsigned active_ = 0;           ///< background workers still in the job
  bool shutdown_ = false;
  std::exception_ptr error_;      ///< first exception of the current job

  // Current job; written under mu_ before the generation bump.
  const RunFn* body_ = nullptr;
  Slot* slots_ = nullptr;
  std::uint64_t end_ = 0;
  CancellationToken* cancel_ = nullptr;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> abort_{false};  ///< set on exception; stops all workers

  std::mutex job_mu_;  ///< serializes for_each callers
};

/// Worker count picked by the QUANTA_JOBS environment variable when it holds
/// a whole positive decimal number (clamped to 1024); anything else — unset,
/// empty, non-numeric, zero/negative, trailing garbage like "4x", or
/// out-of-range — falls back to std::thread::hardware_concurrency() (>= 1).
/// Only global_executor() reads it.
unsigned default_worker_count();

/// A process-wide executor of default_worker_count() workers, started on
/// first use. Nothing in the library calls it: it is kept for the benchmark
/// program, which sizes its engines through QUANTA_JOBS. Its threads do not
/// survive fork(): a child forked after it started hangs in its first job.
Executor& global_executor();

}  // namespace quanta::exec
