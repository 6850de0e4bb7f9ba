#include "svc/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "svc/registry.h"
#include "svc/wire.h"
#include "svc/worker.h"

namespace quanta::svc {

namespace {

/// Respawn backoff after consecutive crashes of one slot: base * 2^(n-1),
/// capped.
constexpr std::chrono::milliseconds kBackoffBase{5};
constexpr std::chrono::milliseconds kBackoffMax{250};
/// Hang backstop: a worker silent past job deadline + grace is killed and
/// the death handled like any other crash. Jobs without a deadline are
/// never killed (cancellation still reaches them).
constexpr std::chrono::milliseconds kKillGrace{30000};

/// Human description of a waitpid status for crash-response error fields.
std::string describe_exit(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "died";
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  slots_.resize(cfg_.workers);
}

Supervisor::~Supervisor() { shutdown(); }

bool Supervisor::start(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (!spawn(&slot)) {
      if (error != nullptr) {
        *error = std::string("could not fork worker: ") + std::strerror(errno);
      }
      return false;
    }
  }
  started_ = true;
  return true;
}

void Supervisor::shutdown() {
  shutdown_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  slot_free_.notify_all();
  for (Slot& slot : slots_) {
    if (slot.pid > 0) {
      ::kill(slot.pid, SIGKILL);
      ::waitpid(slot.pid, nullptr, 0);
      slot.pid = -1;
    }
    if (slot.fd >= 0) {
      ::close(slot.fd);
      slot.fd = -1;
    }
    slot.reader.reset();
  }
  started_ = false;
}

bool Supervisor::spawn(Slot* slot) {
  int sp[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sp[0]);
    ::close(sp[1]);
    return false;
  }
  if (pid == 0) {
    // Child: nothing of the daemon survives here but the job pipe. _exit
    // (not exit) so the daemon's atexit/stdio state is never run twice.
    ::close(sp[0]);
    worker_process_init(sp[1]);
    ::_exit(worker_main(sp[1]));
  }
  ::close(sp[1]);
  slot->pid = pid;
  slot->fd = sp[0];
  slot->reader.reset(sp[0]);
  spawned_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Supervisor::ensure_worker(Slot* slot) {
  if (slot->pid > 0) return true;
  if (slot->consecutive_crashes > 0) {
    // Exponential backoff before the respawn: a crash-looping input (or a
    // broken toolchain) must not turn the pool into a fork storm.
    const unsigned shift =
        slot->consecutive_crashes < 10 ? slot->consecutive_crashes - 1 : 9;
    auto delay = kBackoffBase * (1u << shift);
    if (delay > kBackoffMax) delay = kBackoffMax;
    std::this_thread::sleep_for(delay);
  }
  return spawn(slot);
}

void Supervisor::reap(Slot* slot, std::string* detail) {
  if (slot->fd >= 0) {
    ::close(slot->fd);
    slot->fd = -1;
  }
  slot->reader.reset();
  if (slot->pid > 0) {
    int status = 0;
    if (::waitpid(slot->pid, &status, 0) == slot->pid) {
      *detail = describe_exit(status);
    } else {
      *detail = "died (unreapable)";
    }
    slot->pid = -1;
  }
  ++slot->consecutive_crashes;
}

void Supervisor::kill_and_reap(Slot* slot, std::string* detail) {
  if (slot->pid > 0) ::kill(slot->pid, SIGKILL);
  reap(slot, detail);
  // A deliberate kill is not a worker defect; don't penalize the respawn.
  if (slot->consecutive_crashes > 0) --slot->consecutive_crashes;
  kills_.fetch_add(1, std::memory_order_relaxed);
}

Supervisor::Slot* Supervisor::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire) || !started_) return nullptr;
    for (Slot& slot : slots_) {
      if (!slot.busy) {
        slot.busy = true;
        return &slot;
      }
    }
    slot_free_.wait(lock);
  }
}

void Supervisor::release(Slot* slot, bool healthy) {
  std::lock_guard<std::mutex> lock(mu_);
  slot->busy = false;
  if (healthy) slot->consecutive_crashes = 0;
  slot_free_.notify_one();
}

Supervisor::DispatchOutcome Supervisor::dispatch(Slot* slot,
                                                 const std::string& frame,
                                                 const common::Budget& budget,
                                                 std::uint64_t deadline_ms) {
  DispatchOutcome out;
  auto crashed = [&](std::string detail) {
    out.kind = DispatchOutcome::Kind::kCrashed;
    out.detail = std::move(detail);
    return out;
  };
  // A job cancelled while it waited (in the queue, in a debug hold, for a
  // free slot) never ships: a quick job would otherwise finish before the
  // first poll tick below could notice the cancellation.
  const common::CancelToken* cancel = budget.cancel_token();
  if (cancel != nullptr && cancel->cancelled()) {
    out.kind = DispatchOutcome::Kind::kCancelled;
    return out;
  }

  if (!ensure_worker(slot)) return crashed("could not be spawned");
  if (!write_frame(slot->fd, frame)) {
    // The worker died idle (a chaos kill between jobs): the job never
    // started, so one silent respawn-and-resend does not burn a retry.
    std::string detail;
    reap(slot, &detail);
    if (!ensure_worker(slot) || !write_frame(slot->fd, frame)) {
      return crashed(detail);
    }
  }

  const bool has_deadline = deadline_ms != 0;
  const auto grace_at = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms) + kKillGrace;
  std::string detail;
  for (;;) {
    // A frame already buffered by the reader would never wake poll().
    int rc = 1;
    if (!slot->reader.frame_buffered()) {
      pollfd p{};
      p.fd = slot->fd;
      p.events = POLLIN;
      rc = ::poll(&p, 1, 50);
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      kill_and_reap(slot, &detail);
      return crashed("lost its pipe (poll: " + std::string(std::strerror(errno)) +
                     ")");
    }
    if (rc > 0) {
      std::string payload;
      const FrameStatus fs = slot->reader.read(&payload);
      if (fs == FrameStatus::kOk) {
        std::string error;
        const auto map = WireMap::parse_json(payload, &error);
        const auto resp =
            map ? parse_response(*map, &error) : std::optional<Response>();
        if (!resp) {
          kill_and_reap(slot, &detail);
          return crashed("sent a garbled reply (" + error + ")");
        }
        out.kind = DispatchOutcome::Kind::kReplied;
        out.response = *resp;
        return out;
      }
      // EOF (clean or mid-frame) or a pipe error: the worker is gone.
      reap(slot, &detail);
      return crashed(detail);
    }
    // Poll tick: shutdown / cancellation / hang backstop.
    if (shutdown_.load(std::memory_order_acquire)) {
      kill_and_reap(slot, &detail);
      out.kind = DispatchOutcome::Kind::kCancelled;
      return out;
    }
    if (cancel != nullptr && cancel->cancelled()) {
      kill_and_reap(slot, &detail);
      out.kind = DispatchOutcome::Kind::kCancelled;
      return out;
    }
    if (has_deadline && std::chrono::steady_clock::now() > grace_at) {
      kill_and_reap(slot, &detail);
      return crashed("hung past its deadline grace and was killed");
    }
  }
}

Response Supervisor::execute(const Request& req, std::uint64_t fingerprint,
                             const common::Budget& budget,
                             const ckpt::Options& checkpoint) {
  const Response cancelled = stopped_response(common::StopReason::kCancelled);
  ckpt::Options ck = checkpoint;
  unsigned crashes = 0;
  for (;;) {
    Slot* slot = acquire();
    if (slot == nullptr) return cancelled;
    const std::string frame =
        make_job_frame(req, ck.path, ck.resume).to_json();
    DispatchOutcome out = dispatch(slot, frame, budget, req.deadline_ms);
    release(slot, out.kind == DispatchOutcome::Kind::kReplied);
    switch (out.kind) {
      case DispatchOutcome::Kind::kReplied:
        return out.response;
      case DispatchOutcome::Kind::kCancelled:
        return cancelled;
      case DispatchOutcome::Kind::kCrashed:
        break;
    }
    ++crashes;
    crashes_.fetch_add(1, std::memory_order_relaxed);
    if (cfg_.job_crashed) cfg_.job_crashed(fingerprint, out.detail);
    if (shutdown_.load(std::memory_order_acquire)) return cancelled;
    if (crashes > cfg_.retries) {
      bool inserted = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        inserted = quarantine_.insert(fingerprint).second;
      }
      if (inserted && cfg_.quarantine_changed) {
        cfg_.quarantine_changed(fingerprint, true);
      }
      Response r = stopped_response(common::StopReason::kFault);
      r.error = "worker " + out.detail + "; query quarantined after " +
                std::to_string(crashes) + " crashes";
      return r;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (ck.enabled()) {
      // Resume whatever chain the dead worker left behind: retry cost is
      // the work since the last periodic snapshot, not the whole job. A
      // missing or torn chain degrades to a fresh start inside the worker.
      ck.resume = true;
      resumed_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool Supervisor::quarantined(std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_.count(fingerprint) != 0;
}

bool Supervisor::clear_quarantine(std::uint64_t fingerprint) {
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    erased = quarantine_.erase(fingerprint) != 0;
  }
  if (erased && cfg_.quarantine_changed) {
    cfg_.quarantine_changed(fingerprint, false);
  }
  return erased;
}

void Supervisor::restore_quarantine(
    const std::vector<std::uint64_t>& fingerprints) {
  std::lock_guard<std::mutex> lock(mu_);
  quarantine_.insert(fingerprints.begin(), fingerprints.end());
}

Supervisor::Stats Supervisor::stats() const {
  Stats s;
  s.spawned = spawned_.load(std::memory_order_relaxed);
  s.crashes = crashes_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.resumed_retries = resumed_retries_.load(std::memory_order_relaxed);
  s.kills = kills_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.quarantined = quarantine_.size();
  return s;
}

}  // namespace quanta::svc
