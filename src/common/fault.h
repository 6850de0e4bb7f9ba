// Deterministic fault injection for robustness testing. Named sites are
// compiled into the hot paths of the state store, the simulator and the
// executor (see DESIGN.md "Fault-injection site registry"); a disarmed
// injector costs one relaxed atomic load per site visit. Arming happens
// programmatically from tests or via the QUANTA_FAULT environment variable:
//
//   QUANTA_FAULT=<site>=<kind>[:<after>]
//
// e.g. QUANTA_FAULT=core.state_store.intern=alloc:500 makes the 500th visit
// of that site throw std::bad_alloc. Kinds:
//   alloc     — throw std::bad_alloc (allocation failure)
//   exception — throw quanta::FaultError (worker-thread failure)
//   deadline  — force Budget::poll to report kTimeLimit from then on
//   crash     — raise(SIGSEGV) with the default disposition restored, so the
//               process dies by a real signal (crash-containment drills; only
//               meaningful under svc process isolation, where the supervisor
//               absorbs the worker death)
// Faults fire exactly once per arming.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace quanta::common {

enum class FaultKind { kNone, kAlloc, kException, kDeadline, kCrash };

class FaultInjector {
 public:
  /// The process-wide injector. The constructor arms from QUANTA_FAULT when
  /// the variable is set (malformed specs leave it disarmed).
  static FaultInjector& instance();

  /// Arms a single fault: the `after`-th visit (1-based; 0 and 1 both mean
  /// the first) of `site` fires `kind`, once. Replaces any earlier arming.
  void arm(std::string site, FaultKind kind, std::uint64_t after = 1);
  /// Parses a QUANTA_FAULT spec; returns false (disarmed) when malformed.
  bool arm_from_spec(const std::string& spec);
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  bool fired() const { return fired_.load(std::memory_order_relaxed); }
  const std::string& armed_site() const { return site_; }

  /// Hot-path site marker. No-op unless armed; throws on the matching visit
  /// (kAlloc / kException) or forces the deadline flag (kDeadline).
  static void site(const char* name) {
    FaultInjector& fi = instance();
    if (!fi.armed_.load(std::memory_order_relaxed)) return;
    fi.on_site(name);
  }

  /// True when an armed kDeadline fault has fired: Budget::poll reports
  /// kTimeLimit regardless of the real clock.
  static bool deadline_forced() {
    FaultInjector& fi = instance();
    return fi.deadline_forced_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector();
  void on_site(const char* name);

  std::atomic<bool> armed_{false};
  std::atomic<bool> fired_{false};
  std::atomic<bool> deadline_forced_{false};
  std::atomic<std::uint64_t> remaining_{0};  ///< visits left before firing
  // site_/kind_ are written only while disarmed (arm/disarm are not
  // thread-safe against in-flight sites; tests arm before running engines).
  std::string site_;
  FaultKind kind_ = FaultKind::kNone;
};

}  // namespace quanta::common
