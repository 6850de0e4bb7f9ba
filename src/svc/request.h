// Request/response vocabulary of the analysis service: the typed form of
// one wire message, its validation rules, and the deterministic response
// serialization that makes "served from cache" bit-identical to "freshly
// computed" (everything but the `cached` flag).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/verdict.h"
#include "svc/wire.h"

namespace quanta::svc {

/// Outcome class of one request, the first field of every response.
enum class Status {
  kOk,          ///< the analysis ran (or was served from cache)
  kOverload,    ///< load-shedding rejected the job (queue/memory admission)
  kBadRequest,  ///< malformed or unknown engine/model/query/params
  kShutdown,    ///< the daemon is stopping; resubmit elsewhere/later
  kError,       ///< internal failure (the daemon itself stays up)
};

const char* to_string(Status s);
std::optional<Status> parse_status(const std::string& s);

/// Queue lanes, highest first. The wire value is "high"/"normal"/"low".
enum class Priority { kHigh = 0, kNormal = 1, kLow = 2 };

inline constexpr int kLaneCount = 3;

/// One analysis request. Wire fields (all optional unless noted):
///   engine (required)   mc | smc | game | cora | svc (builtins)
///   model  (required*)  a src/models registry name, e.g. "train-gate-4"
///   query  (required*)  engine-specific query name, e.g. "mutex"
///   priority            high | normal | low (default normal)
///   deadline_ms         wall-clock budget for the job (0 = none)
///   memory_mb           memory ceiling for the job (0 = none)
///   runs, seed, bound   smc sample size / RNG seed / time bound
///   ckpt_interval       periodic snapshot cadence (engine progress units)
///   resume              resume token from a previous budget-tripped reply
///   cache               "0" bypasses the result cache (lookup and insert)
///   quarantine          "0" bypasses the poison-job list: the query runs
///                       even when quarantined, and a clean completion
///                       clears its quarantine entry
///   want_ticket         "1" asks a journaling daemon to return this job's
///                       journal ticket (see svc/journal.h); answers stay
///                       byte-identical to ticketless traffic otherwise
///   ticket              for engine "svc" query "result": fetch the stored
///                       answer of a previously journaled job by its ticket
///   hold_ms, throttle_us  debug-only pacing knobs (--debug daemons)
///   fault               debug-only QUANTA_FAULT spec armed inside the
///                       worker process for this one job (crash drills)
///   crash_signal        debug-only: worker raises this signal at job start
///   rlimit_mb           debug-only: worker sets RLIMIT_AS to this many MiB
///                       before running the job (OOM drills)
/// A daemon without --debug rejects a request with any debug knob set, and
/// the job journal never records them (it clears Request::debug).
/// (*) not required for engine "svc" builtins ("stats", "ping").
struct Request {
  /// The five debug-only knobs; all zero/empty unless the request sets one.
  struct Debug {
    std::uint64_t hold_ms = 0;
    std::uint64_t throttle_us = 0;
    std::string fault;
    std::uint64_t crash_signal = 0;
    std::uint64_t rlimit_mb = 0;

    bool empty() const {
      return hold_ms == 0 && throttle_us == 0 && fault.empty() &&
             crash_signal == 0 && rlimit_mb == 0;
    }
  };

  std::string engine;
  std::string model;
  std::string query;
  Priority priority = Priority::kNormal;
  std::uint64_t deadline_ms = 0;
  std::uint64_t memory_mb = 0;
  std::uint64_t runs = 2000;
  std::uint64_t seed = 1;
  double bound = 100.0;
  std::uint64_t ckpt_interval = 0;
  std::string resume;
  bool use_cache = true;
  bool use_quarantine = true;
  bool want_ticket = false;
  std::uint64_t ticket = 0;
  Debug debug;
};

/// Validates field values (unknown keys are ignored — forward compatible;
/// malformed values of known keys are rejected, never half-parsed).
std::optional<Request> parse_request(const WireMap& m, std::string* error);
WireMap to_wire(const Request& r);

/// One analysis response. `verdict`/`stop` use the common vocabulary;
/// stats are the engine-specific mapping documented in svc/registry.h.
struct Response {
  Status status = Status::kError;
  std::string error;  ///< reason when status != kOk
  bool cached = false;
  common::Verdict verdict = common::Verdict::kUnknown;
  common::StopReason stop = common::StopReason::kCompleted;
  std::uint64_t stored = 0;
  std::uint64_t explored = 0;
  std::uint64_t transitions = 0;
  std::int64_t extra = 0;
  bool has_value = false;
  double value = 0.0;
  std::string resume;  ///< resume token when a checkpoint was saved
  std::uint64_t ticket = 0;  ///< journal ticket, only when asked for
};

/// A response carrying only `status` and the reason `why`.
Response make_error(Status status, std::string why);

/// Deterministic field order; cache hits re-serialize the stored Response
/// with only `cached` flipped, so byte-level diffs ignore exactly one field.
WireMap to_wire(const Response& r);
std::optional<Response> parse_response(const WireMap& m, std::string* error);

/// Approximate heap footprint of a cached response (ResultCache accounting).
std::size_t response_bytes(const Response& r);

}  // namespace quanta::svc
