#include "svc/worker.h"

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <new>

#include "common/budget.h"
#include "common/fault.h"
#include "svc/registry.h"

// Sanitizer shadow memory reserves terabytes of address space; a job-sized
// RLIMIT_AS would kill the worker at startup, not at the drill point.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QUANTA_WORKER_NO_RLIMIT 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QUANTA_WORKER_NO_RLIMIT 1
#endif
#endif

namespace quanta::svc {

namespace {

/// Headroom above the job's soft memory budget before the hard RLIMIT_AS
/// cap: the soft budget trips via Budget::poll byte accounting long before;
/// the rlimit only catches allocations that accounting never saw (leaks,
/// wild growth) — plus the process's own baseline mappings.
constexpr std::uint64_t kRlimitSlackMb = 1024;

/// Scoped RLIMIT_AS for one job. `exact_mb` (the rlimit_mb drill knob) is
/// applied verbatim; otherwise a non-zero job budget gets budget + slack.
/// While a limit is armed, allocation failure aborts instead of throwing:
/// exhausting the hard cap means the soft accounting failed, and a loud
/// contained death is the designed response, not a degraded verdict.
///
/// The drill cap additionally preflights one 256 MiB allocation.
/// A worker forked from a warm daemon inherits glibc's per-thread arena
/// reservations — address-space blocks the allocator regrows via mprotect,
/// which the kernel never checks against RLIMIT_AS — so a job's ordinary
/// small allocations can dodge a drill-sized cap indefinitely in a
/// respawned worker while killing a fresh one. The preflight is too big for
/// any arena heap (> 64 MiB forces the mmap path the kernel does check):
/// under the cap the kernel refuses it, the armed handler fires, and the
/// worker dies by SIGABRT exactly like a production job whose growth
/// outran the soft accounting.
class RlimitGuard {
 public:
  RlimitGuard(std::uint64_t exact_mb, std::uint64_t budget_mb) {
#if !defined(QUANTA_WORKER_NO_RLIMIT)
    const std::uint64_t mb =
        exact_mb != 0 ? exact_mb : (budget_mb != 0 ? budget_mb + kRlimitSlackMb : 0);
    if (mb == 0) return;
    if (::getrlimit(RLIMIT_AS, &saved_) != 0) return;
    rlimit lim = saved_;
    const rlim_t bytes = static_cast<rlim_t>(mb) << 20;
    lim.rlim_cur = (saved_.rlim_max == RLIM_INFINITY || bytes < saved_.rlim_max)
                       ? bytes
                       : saved_.rlim_max;
    if (::setrlimit(RLIMIT_AS, &lim) != 0) return;
    applied_ = true;
    old_handler_ = std::set_new_handler([] { std::abort(); });
    if (exact_mb != 0) {
      // Direct operator-new calls are not elidable, so the probe cannot be
      // optimized away with its failure path. A generous drill cap grants
      // the probe and the job proceeds; a tight one dies here.
      void* probe = ::operator new(std::size_t{256} << 20);
      ::operator delete(probe);
    }
#else
    (void)exact_mb;
    (void)budget_mb;
#endif
  }
  ~RlimitGuard() {
    if (applied_) {
      std::set_new_handler(old_handler_);
      ::setrlimit(RLIMIT_AS, &saved_);
    }
  }
  RlimitGuard(const RlimitGuard&) = delete;
  RlimitGuard& operator=(const RlimitGuard&) = delete;

 private:
  bool applied_ = false;
  rlimit saved_{};
  std::new_handler old_handler_ = nullptr;
};

WireMap run_one_job(const std::string& payload) {
  std::string error;
  const auto map = WireMap::parse_json(payload, &error);
  if (!map) {
    return to_wire(
        make_error(Status::kError, "worker: malformed job frame: " + error));
  }
  const auto req = parse_request(*map, &error);
  if (!req) return to_wire(make_error(Status::kError, "worker: " + error));

  ckpt::Options checkpoint;
  if (const std::string* p = map->get("ckpt_path")) checkpoint.path = *p;
  checkpoint.interval = req->ckpt_interval;
  const std::string* resume = map->get("ckpt_resume");
  checkpoint.resume = resume != nullptr && *resume == "1";

  // Crash drills, gated by --debug on the server side. The signal
  // disposition is reset first so the death is by the real signal even
  // when a sanitizer installed its own handler.
  if (req->debug.crash_signal != 0) {
    const int sig = static_cast<int>(req->debug.crash_signal);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
  const bool fault_armed = !req->debug.fault.empty();
  if (fault_armed) {
    common::FaultInjector::instance().arm_from_spec(req->debug.fault);
  }

  const auto prepared = prepare_job(*req, &error);
  if (!prepared) return to_wire(make_error(Status::kBadRequest, error));

  const common::Budget budget = job_budget(*req, nullptr);
  RlimitGuard rlimit(req->debug.rlimit_mb, req->memory_mb);

  const std::string token = fingerprint_token(prepared->fingerprint);
  const Response resp = common::governed(
      [&] {
        common::FaultInjector::site("svc.worker.job");
        return response_from_result(
            prepared->run(budget, checkpoint, &req->debug), token);
      },
      stopped_response);
  // A per-job fault spec must not leak its remaining countdown into the
  // next job this worker serves (a crash drill that fired never gets here —
  // the process is already gone).
  if (fault_armed) common::FaultInjector::instance().disarm();
  return to_wire(resp);
}

}  // namespace

WireMap make_job_frame(const Request& req, const std::string& ckpt_path,
                       bool resume) {
  WireMap m = to_wire(req);
  if (!ckpt_path.empty()) {
    m.set("ckpt_path", ckpt_path);
    m.set("ckpt_resume", resume ? "1" : "0");
  }
  return m;
}

void worker_process_init(int job_fd) {
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGPIPE, SIG_IGN);
  // Drop every descriptor the daemon was holding — listeners, sessions,
  // other workers' pipes. A worker holding a sibling's pipe end would mask
  // that sibling's EOF-on-death from the supervisor.
  const long open_max = ::sysconf(_SC_OPEN_MAX);
  const int limit =
      open_max > 0 && open_max < 4096 ? static_cast<int>(open_max) : 4096;
  for (int fd = 3; fd < limit; ++fd) {
    if (fd != job_fd) ::close(fd);
  }
}

int worker_main(int job_fd) {
  FrameReader reader(job_fd);
  std::string payload;
  for (;;) {
    if (reader.read(&payload) != FrameStatus::kOk) {
      return 0;  // supervisor hung up (shutdown) or the pipe broke
    }
    if (!write_frame(job_fd, run_one_job(payload).to_json())) return 0;
  }
}

bool worker_rlimit_supported() {
#if defined(QUANTA_WORKER_NO_RLIMIT)
  return false;
#else
  return true;
#endif
}

}  // namespace quanta::svc
