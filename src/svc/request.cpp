#include "svc/request.h"

#include <cstring>
#include <utility>

#include "core/search.h"

namespace quanta::svc {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverload: return "overload";
    case Status::kBadRequest: return "bad-request";
    case Status::kShutdown: return "shutdown";
    case Status::kError: return "error";
  }
  return "?";
}

std::optional<Status> parse_status(const std::string& s) {
  for (Status st : {Status::kOk, Status::kOverload, Status::kBadRequest,
                    Status::kShutdown, Status::kError}) {
    if (s == to_string(st)) return st;
  }
  return std::nullopt;
}

namespace {

std::optional<Priority> parse_priority(const std::string& s) {
  if (s == "high") return Priority::kHigh;
  if (s == "normal") return Priority::kNormal;
  if (s == "low") return Priority::kLow;
  return std::nullopt;
}

const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "?";
}

std::optional<common::Verdict> parse_verdict(const std::string& s) {
  for (auto v : {common::Verdict::kHolds, common::Verdict::kViolated,
                 common::Verdict::kUnknown}) {
    if (s == common::to_string(v)) return v;
  }
  return std::nullopt;
}

std::optional<common::StopReason> parse_stop(const std::string& s) {
  for (auto r : {common::StopReason::kCompleted, common::StopReason::kStateLimit,
                 common::StopReason::kTimeLimit, common::StopReason::kMemoryLimit,
                 common::StopReason::kCancelled, common::StopReason::kFault}) {
    if (s == common::to_string(r)) return r;
  }
  return std::nullopt;
}

/// Reads an optional strict-u64 field into *out; a present-but-malformed
/// value fails the whole request rather than silently using the default.
bool read_u64(const WireMap& m, const char* key, std::uint64_t* out,
              std::string* error) {
  if (m.get(key) == nullptr) return true;
  const auto v = m.get_u64(key);
  if (!v) {
    *error = std::string("field '") + key + "' must be a whole non-negative " +
             "decimal number";
    return false;
  }
  *out = *v;
  return true;
}

}  // namespace

std::optional<Request> parse_request(const WireMap& m, std::string* error) {
  std::string err;
  Request r;
  auto fail = [&](std::string why) -> std::optional<Request> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  if (const std::string* s = m.get("engine")) {
    r.engine = *s;
  } else {
    return fail("missing required field 'engine'");
  }
  if (const std::string* s = m.get("model")) r.model = *s;
  if (const std::string* s = m.get("query")) r.query = *s;
  if (const std::string* s = m.get("priority")) {
    const auto p = parse_priority(*s);
    if (!p) return fail("field 'priority' must be high, normal or low");
    r.priority = *p;
  }
  if (!read_u64(m, "deadline_ms", &r.deadline_ms, &err)) return fail(err);
  if (!read_u64(m, "memory_mb", &r.memory_mb, &err)) return fail(err);
  if (!read_u64(m, "runs", &r.runs, &err)) return fail(err);
  if (!read_u64(m, "seed", &r.seed, &err)) return fail(err);
  if (!read_u64(m, "ckpt_interval", &r.ckpt_interval, &err)) return fail(err);
  Request::Debug& debug = r.debug;
  if (!read_u64(m, "hold_ms", &debug.hold_ms, &err)) return fail(err);
  if (!read_u64(m, "throttle_us", &debug.throttle_us, &err)) return fail(err);
  if (debug.throttle_us >
      static_cast<std::uint64_t>(core::SearchLimits::kMaxPace.count())) {
    return fail("field 'throttle_us' must be at most 1000000 (one second "
                "per explored state)");
  }
  if (!read_u64(m, "crash_signal", &debug.crash_signal, &err)) return fail(err);
  if (!read_u64(m, "rlimit_mb", &debug.rlimit_mb, &err)) return fail(err);
  if (!read_u64(m, "ticket", &r.ticket, &err)) return fail(err);
  if (const std::string* s = m.get("fault")) debug.fault = *s;
  if (m.get("bound") != nullptr) {
    const auto b = m.get_f64("bound");
    if (!b || !(*b > 0.0)) return fail("field 'bound' must be a positive number");
    r.bound = *b;
  }
  if (const std::string* s = m.get("resume")) r.resume = *s;
  if (const std::string* s = m.get("cache")) {
    if (*s == "0") {
      r.use_cache = false;
    } else if (*s != "1") {
      return fail("field 'cache' must be 0 or 1");
    }
  }
  if (const std::string* s = m.get("quarantine")) {
    if (*s == "0") {
      r.use_quarantine = false;
    } else if (*s != "1") {
      return fail("field 'quarantine' must be 0 or 1");
    }
  }
  if (const std::string* s = m.get("want_ticket")) {
    if (*s == "1") {
      r.want_ticket = true;
    } else if (*s != "0") {
      return fail("field 'want_ticket' must be 0 or 1");
    }
  }
  if (r.runs < 1) return fail("field 'runs' must be >= 1");
  if (debug.crash_signal > 64) {
    return fail("field 'crash_signal' must be <= 64");
  }
  return r;
}

WireMap to_wire(const Request& r) {
  WireMap m;
  m.set("engine", r.engine);
  if (!r.model.empty()) m.set("model", r.model);
  if (!r.query.empty()) m.set("query", r.query);
  if (r.priority != Priority::kNormal) m.set("priority", to_string(r.priority));
  if (r.deadline_ms != 0) m.set_u64("deadline_ms", r.deadline_ms);
  if (r.memory_mb != 0) m.set_u64("memory_mb", r.memory_mb);
  m.set_u64("runs", r.runs);
  m.set_u64("seed", r.seed);
  m.set_f64("bound", r.bound);
  if (r.ckpt_interval != 0) m.set_u64("ckpt_interval", r.ckpt_interval);
  if (!r.resume.empty()) m.set("resume", r.resume);
  if (!r.use_cache) m.set("cache", "0");
  if (!r.use_quarantine) m.set("quarantine", "0");
  if (r.want_ticket) m.set("want_ticket", "1");
  if (r.ticket != 0) m.set_u64("ticket", r.ticket);
  const Request::Debug& debug = r.debug;
  if (debug.hold_ms != 0) m.set_u64("hold_ms", debug.hold_ms);
  if (debug.throttle_us != 0) m.set_u64("throttle_us", debug.throttle_us);
  if (!debug.fault.empty()) m.set("fault", debug.fault);
  if (debug.crash_signal != 0) m.set_u64("crash_signal", debug.crash_signal);
  if (debug.rlimit_mb != 0) m.set_u64("rlimit_mb", debug.rlimit_mb);
  return m;
}

Response make_error(Status status, std::string why) {
  Response r;
  r.status = status;
  r.error = std::move(why);
  return r;
}

WireMap to_wire(const Response& r) {
  WireMap m;
  m.set("status", to_string(r.status));
  if (!r.error.empty()) m.set("error", r.error);
  m.set("cached", r.cached ? "1" : "0");
  m.set("verdict", common::to_string(r.verdict));
  m.set("stop", common::to_string(r.stop));
  m.set_u64("stored", r.stored);
  m.set_u64("explored", r.explored);
  m.set_u64("transitions", r.transitions);
  m.set_i64("extra", r.extra);
  if (r.has_value) m.set_f64("value", r.value);
  if (!r.resume.empty()) m.set("resume", r.resume);
  // Only present when explicitly requested (want_ticket): everything the
  // cache stores and CI byte-diffs stays ticket-free.
  if (r.ticket != 0) m.set_u64("ticket", r.ticket);
  return m;
}

std::optional<Response> parse_response(const WireMap& m, std::string* error) {
  auto fail = [&](const char* why) -> std::optional<Response> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Response r;
  const std::string* status = m.get("status");
  if (status == nullptr) return fail("missing 'status'");
  const auto st = parse_status(*status);
  if (!st) return fail("unknown 'status' value");
  r.status = *st;
  if (const std::string* s = m.get("error")) r.error = *s;
  if (const std::string* s = m.get("cached")) r.cached = (*s == "1");
  if (const std::string* s = m.get("verdict")) {
    const auto v = parse_verdict(*s);
    if (!v) return fail("unknown 'verdict' value");
    r.verdict = *v;
  }
  if (const std::string* s = m.get("stop")) {
    const auto v = parse_stop(*s);
    if (!v) return fail("unknown 'stop' value");
    r.stop = *v;
  }
  if (const auto v = m.get_u64("stored")) r.stored = *v;
  if (const auto v = m.get_u64("explored")) r.explored = *v;
  if (const auto v = m.get_u64("transitions")) r.transitions = *v;
  if (const auto v = m.get_i64("extra")) r.extra = *v;
  if (m.get("value") != nullptr) {
    const auto v = m.get_f64("value");
    if (!v) return fail("malformed 'value'");
    r.has_value = true;
    r.value = *v;
  }
  if (const std::string* s = m.get("resume")) r.resume = *s;
  if (const auto v = m.get_u64("ticket")) r.ticket = *v;
  return r;
}

std::size_t response_bytes(const Response& r) {
  return sizeof(Response) + r.error.size() + r.resume.size();
}

}  // namespace quanta::svc
