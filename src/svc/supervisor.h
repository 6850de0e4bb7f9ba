// svc::Supervisor — the crash-containment layer between the server's job
// runners and the engines: a prefork pool of worker processes, one job per
// worker at a time, dispatched over socketpair pipes with svc::wire frames.
//
// Containment contract (DESIGN.md "Supervision tree"):
//
//   * A worker death mid-job — SIGSEGV, SIGABRT, SIGKILL, rlimit OOM —
//     surfaces to the supervisor as EOF before the response frame. Only
//     that job is affected; every other in-flight job keeps its own worker
//     and completes bit-identically to a calm run.
//   * The dead worker is reaped (waitpid, signal decoded for the error
//     message) and its slot respawned lazily with exponential backoff
//     (base * 2^consecutive-crashes, capped), so a crash storm cannot turn
//     into a fork storm.
//   * The crashed job is re-dispatched up to `retries` times, with the
//     checkpoint policy flipped to resume: each retry continues from the
//     last periodic snapshot the dead worker managed to write, so retry
//     cost is incremental, not quadratic.
//   * After retries+1 crashes in one submission the job's fingerprint
//     enters the poison list; the server answers it with a deterministic
//     kFault response without touching the pool until a quarantine-bypass
//     run (request field quarantine=0) completes cleanly.
//
// The supervisor never kills a worker for exceeding its *budget* — budgets
// are cooperative and the worker replies kUnknown on its own. Kills happen
// only for cancellation (daemon shutdown), or as a hang backstop when a
// worker stays silent past its deadline plus a generous grace.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/budget.h"
#include "svc/request.h"
#include "svc/wire.h"

namespace quanta::svc {

struct SupervisorConfig {
  unsigned workers = 1;  ///< pool size; the server uses its runner count
  unsigned retries = 2;  ///< crash re-dispatches per job before quarantine
  /// Journaling hooks (both optional, both invoked outside mu_ so they may
  /// take their own locks). quarantine_changed fires on every poison-list
  /// transition (`added` true = quarantined, false = cleared by a bypass);
  /// job_crashed fires once per observed worker death with its description.
  std::function<void(std::uint64_t fingerprint, bool added)> quarantine_changed;
  std::function<void(std::uint64_t fingerprint, const std::string& detail)>
      job_crashed;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig cfg);
  ~Supervisor();  ///< calls shutdown()
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Preforks the pool. False (reason in *error) if no worker could be
  /// spawned; the supervisor is then inert.
  bool start(std::string* error);
  /// Kills and reaps every worker, wakes blocked acquirers. Idempotent.
  /// The server drains its job queue first, so no dispatch is in flight.
  void shutdown();

  /// Runs one admitted job in the pool, blocking until a response, a
  /// cancellation, or quarantine. Crash containment and retry-with-resume
  /// happen inside; the caller sees exactly one well-formed Response.
  Response execute(const Request& req, std::uint64_t fingerprint,
                   const common::Budget& budget,
                   const ckpt::Options& checkpoint);

  bool quarantined(std::uint64_t fingerprint) const;
  /// Removes a fingerprint from the poison list (a bypass run completed).
  /// True iff the fingerprint was actually quarantined; fires
  /// quarantine_changed only on that transition.
  bool clear_quarantine(std::uint64_t fingerprint);
  /// Seeds the poison list from a journal replay (boot only, before any
  /// traffic). Deliberately silent: these entries are already journaled.
  void restore_quarantine(const std::vector<std::uint64_t>& fingerprints);

  struct Stats {
    std::uint64_t spawned = 0;         ///< workers forked over the lifetime
    std::uint64_t crashes = 0;         ///< worker deaths observed mid-job
    std::uint64_t retries = 0;         ///< crash re-dispatches issued
    std::uint64_t resumed_retries = 0; ///< re-dispatches with a resume chain
    std::uint64_t kills = 0;           ///< workers killed (cancel/hang)
    std::uint64_t quarantined = 0;     ///< fingerprints currently poisoned
  };
  Stats stats() const;

 private:
  struct Slot {
    pid_t pid = -1;
    int fd = -1;  ///< supervisor end of the job pipe
    FrameReader reader;  ///< reads fd; reset whenever fd changes
    bool busy = false;
    unsigned consecutive_crashes = 0;  ///< drives the respawn backoff
  };

  struct DispatchOutcome {
    enum class Kind { kReplied, kCrashed, kCancelled };
    Kind kind = Kind::kCrashed;
    Response response;
    std::string detail;  ///< kCrashed: how the worker died
  };

  Slot* acquire();
  void release(Slot* slot, bool healthy);
  bool spawn(Slot* slot);
  bool ensure_worker(Slot* slot);
  /// Closes the pipe, waits for the corpse, describes the death in *detail.
  void reap(Slot* slot, std::string* detail);
  void kill_and_reap(Slot* slot, std::string* detail);
  DispatchOutcome dispatch(Slot* slot, const std::string& frame,
                           const common::Budget& budget,
                           std::uint64_t deadline_ms);

  SupervisorConfig cfg_;
  std::vector<Slot> slots_;
  std::atomic<bool> shutdown_{false};
  bool started_ = false;

  mutable std::mutex mu_;  ///< slots' busy flags, quarantine set, lifecycle
  std::condition_variable slot_free_;
  std::unordered_set<std::uint64_t> quarantine_;

  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> resumed_retries_{0};
  std::atomic<std::uint64_t> kills_{0};
};

}  // namespace quanta::svc
