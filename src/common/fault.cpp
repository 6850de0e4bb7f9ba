#include "common/fault.h"

#include <csignal>
#include <cstdlib>
#include <new>

#include "common/env.h"
#include "common/error.h"

namespace quanta::common {

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  if (const char* spec = std::getenv("QUANTA_FAULT")) {
    arm_from_spec(spec);
  }
}

void FaultInjector::arm(std::string site, FaultKind kind, std::uint64_t after) {
  disarm();
  site_ = std::move(site);
  kind_ = kind;
  remaining_.store(after > 0 ? after : 1, std::memory_order_relaxed);
  fired_.store(false, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

bool FaultInjector::arm_from_spec(const std::string& spec) {
  // All-or-nothing: a malformed spec leaves the injector disarmed rather
  // than silently keeping an earlier arming around.
  disarm();
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  std::string site = spec.substr(0, eq);
  std::string rest = spec.substr(eq + 1);
  std::uint64_t after = 1;
  if (const std::size_t colon = rest.find(':'); colon != std::string::npos) {
    const auto count = parse_u64(rest.c_str() + colon + 1);
    if (!count || *count == 0) return false;
    after = *count;
    rest = rest.substr(0, colon);
  }
  FaultKind kind;
  if (rest == "alloc") {
    kind = FaultKind::kAlloc;
  } else if (rest == "exception") {
    kind = FaultKind::kException;
  } else if (rest == "deadline") {
    kind = FaultKind::kDeadline;
  } else if (rest == "crash") {
    kind = FaultKind::kCrash;
  } else {
    return false;
  }
  arm(std::move(site), kind, after);
  return true;
}

void FaultInjector::disarm() {
  armed_.store(false, std::memory_order_release);
  deadline_forced_.store(false, std::memory_order_relaxed);
  fired_.store(false, std::memory_order_relaxed);
  remaining_.store(0, std::memory_order_relaxed);
  kind_ = FaultKind::kNone;
  site_.clear();
}

void FaultInjector::on_site(const char* name) {
  if (site_ != name) return;
  // Count down atomically; exactly one visitor sees the transition to zero,
  // so concurrent workers fire the fault once.
  std::uint64_t r = remaining_.load(std::memory_order_relaxed);
  for (;;) {
    if (r == 0) return;  // already fired
    if (remaining_.compare_exchange_weak(r, r - 1,
                                         std::memory_order_acq_rel)) {
      if (r != 1) return;  // not this visit yet
      break;
    }
  }
  fired_.store(true, std::memory_order_relaxed);
  switch (kind_) {
    case FaultKind::kAlloc:
      throw std::bad_alloc();
    case FaultKind::kException:
      throw quanta::FaultError("fault-injection",
                               "injected worker fault at site '", site_, "'");
    case FaultKind::kDeadline:
      deadline_forced_.store(true, std::memory_order_relaxed);
      return;
    case FaultKind::kCrash:
      // Die by a genuine SIGSEGV: restore the default disposition first so a
      // sanitizer's handler cannot turn the death into an orderly report —
      // the supervisor must observe a signal-killed child.
      std::signal(SIGSEGV, SIG_DFL);
      std::raise(SIGSEGV);
      return;
    case FaultKind::kNone:
      return;
  }
}

}  // namespace quanta::common
