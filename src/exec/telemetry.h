// Run-level telemetry of the parallel statistical runtime — the simulation
// counterpart of the symbolic engines' core::SearchStats. Every Executor
// job fills one WorkerTelemetry slot per worker (no sharing, no atomics on
// the hot path); the slots are merged into a RunTelemetry that engines
// accumulate across phases (e.g. all batches of one SPRT test) and benches
// print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace quanta::exec {

/// Counters of one worker within one (or several accumulated) jobs.
struct WorkerTelemetry {
  std::uint64_t runs_started = 0;
  std::uint64_t runs_completed = 0;
  std::uint64_t hits = 0;       ///< engine-defined successes (goal reached)
  std::uint64_t sim_steps = 0;  ///< discrete simulation steps executed
  double busy_seconds = 0.0;    ///< wall time spent inside chunk bodies
  double cpu_seconds = 0.0;     ///< thread CPU time spent inside chunk bodies

  void add(const WorkerTelemetry& o);
};

struct RunTelemetry {
  std::vector<WorkerTelemetry> workers;  ///< indexed by worker id
  double wall_seconds = 0.0;             ///< end-to-end time across all jobs

  std::uint64_t runs_started() const;
  std::uint64_t runs_completed() const;
  std::uint64_t hits() const;
  std::uint64_t sim_steps() const;
  double busy_seconds() const;
  double cpu_seconds() const;
  /// Completed runs per wall second (0 until some time was recorded).
  double runs_per_second() const;
  /// cpu/wall utilisation — ~worker count when the workers scale, ~1 when the
  /// hardware or the workload serializes it.
  double parallelism() const;

  /// Accumulates one job's per-worker slots and its wall time.
  void accumulate(const std::vector<WorkerTelemetry>& slots,
                  double job_wall_seconds);

  /// One-line human-readable summary for logs and benches.
  std::string summary() const;
};

/// CPU time of the calling thread (0 where unsupported).
double thread_cpu_seconds();

}  // namespace quanta::exec
