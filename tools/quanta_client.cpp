// quanta_client — CLI for the quantad analysis service.
//
//   quanta_client --socket PATH | --tcp-host A --tcp-port N
//                 --engine E --model M --query Q [params...]
//   quanta_client --socket PATH --ping | --stats
//   quanta_client --socket PATH --ticket N       # fetch a journaled answer
//   quanta_client --socket PATH --wait-ready MS  # block until daemon is up
//
// Prints one result line per analysis:
//
//   status=ok cached=0 verdict=<v> stored=<n> explored=<n> transitions=<n>
//     extra=<n> [value=<f>] [resume=<token>] [ticket=<n>]
//
// Fields 3.. match tools/ckpt_smoke's output line, so CI can diff a
// service answer against a direct library run with `cut -d' ' -f3-`
// (ticket= appears only with --want-ticket, so diffed runs never carry it).
//
// --want-ticket asks a journaling daemon for the job's journal ticket;
// --ticket N later fetches that job's stored answer — the recovery path
// for a client whose connection died across a daemon restart (README
// "Restarting quantad"). A still-pending ticket answers status=error
// (exit 6): poll until the replayed job completes. --wait-ready MS polls
// ping with deterministic backoff and exits 1 if the daemon is not up in
// time; combined with an action it gates the action on readiness.
//
// Exit codes: 0 definite verdict, 3 verdict unknown (budget-tripped jobs
// land here and print their resume token), 2 overload rejection,
// 4 bad request, 5 daemon shutting down, 6 daemon-internal error,
// 7 truncated response (the daemon died mid-reply — distinct from a
// clean transport failure so chaos harnesses can tell corruption from
// absence), 1 usage / other transport / protocol failure.
//
// --timeout-ms caps connect and each socket read/write; --retries N
// re-attempts transport failures and overload/shutdown answers with
// exponential backoff and deterministic jitter (see svc/client.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.h"
#include "svc/client.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--socket PATH | --tcp-host ADDR --tcp-port N)\n"
      "          (--ping | --stats | --ticket N | --wait-ready MS |\n"
      "           --engine E --model M --query Q\n"
      "           [--priority high|normal|low] [--deadline-ms N]\n"
      "           [--memory-mb N] [--runs N] [--seed N] [--bound F]\n"
      "           [--ckpt-interval N] [--resume TOKEN] [--no-cache]\n"
      "           [--no-quarantine] [--want-ticket] [--hold-ms N]\n"
      "           [--throttle-us N] [--fault SPEC] [--crash-signal N]\n"
      "           [--rlimit-mb N])\n"
      "          [--wait-ready MS] [--timeout-ms N] [--retries N]\n",
      argv0);
  return 1;
}

int status_exit_code(quanta::svc::Status s, quanta::common::Verdict verdict) {
  switch (s) {
    case quanta::svc::Status::kOk:
      return verdict == quanta::common::Verdict::kUnknown ? 3 : 0;
    case quanta::svc::Status::kOverload:
      return 2;
    case quanta::svc::Status::kBadRequest:
      return 4;
    case quanta::svc::Status::kShutdown:
      return 5;
    case quanta::svc::Status::kError:
      return 6;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, tcp_host;
  int tcp_port = -1;
  bool builtin = false;
  bool wait_ready_set = false;
  std::uint64_t wait_ready_ms = 0;
  quanta::svc::Request req;
  quanta::svc::RetryPolicy policy;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_u64 = [&](std::uint64_t* out) {
      const auto v = quanta::common::parse_u64(next());
      if (v) *out = *v;
      return v.has_value();
    };
    if (arg == "--socket") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      socket_path = s;
    } else if (arg == "--tcp-host") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      tcp_host = s;
    } else if (arg == "--tcp-port") {
      std::uint64_t v = 0;
      if (!next_u64(&v) || v > 65535) return usage(argv[0]);
      tcp_port = static_cast<int>(v);
    } else if (arg == "--ping" || arg == "--stats") {
      builtin = true;
      req.engine = "svc";
      req.query = arg.substr(2);
    } else if (arg == "--engine") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      req.engine = s;
    } else if (arg == "--model") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      req.model = s;
    } else if (arg == "--query") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      req.query = s;
    } else if (arg == "--priority") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      if (std::strcmp(s, "high") == 0) {
        req.priority = quanta::svc::Priority::kHigh;
      } else if (std::strcmp(s, "normal") == 0) {
        req.priority = quanta::svc::Priority::kNormal;
      } else if (std::strcmp(s, "low") == 0) {
        req.priority = quanta::svc::Priority::kLow;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--deadline-ms") {
      if (!next_u64(&req.deadline_ms)) return usage(argv[0]);
    } else if (arg == "--memory-mb") {
      if (!next_u64(&req.memory_mb)) return usage(argv[0]);
    } else if (arg == "--runs") {
      if (!next_u64(&req.runs)) return usage(argv[0]);
    } else if (arg == "--seed") {
      if (!next_u64(&req.seed)) return usage(argv[0]);
    } else if (arg == "--bound") {
      const char* s = next();
      char* endp = nullptr;
      if (s == nullptr) return usage(argv[0]);
      req.bound = std::strtod(s, &endp);
      if (endp == s || *endp != '\0') return usage(argv[0]);
    } else if (arg == "--ckpt-interval") {
      if (!next_u64(&req.ckpt_interval)) return usage(argv[0]);
    } else if (arg == "--resume") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      req.resume = s;
    } else if (arg == "--no-cache") {
      req.use_cache = false;
    } else if (arg == "--no-quarantine") {
      req.use_quarantine = false;
    } else if (arg == "--want-ticket") {
      req.want_ticket = true;
    } else if (arg == "--ticket") {
      // A ticket fetch is the svc "result" builtin, but it answers with a
      // full analysis response — route it through the analysis printer so
      // its output line diffs cleanly against the original run.
      if (!next_u64(&req.ticket) || req.ticket == 0) return usage(argv[0]);
      req.engine = "svc";
      req.query = "result";
    } else if (arg == "--wait-ready") {
      if (!next_u64(&wait_ready_ms)) return usage(argv[0]);
      wait_ready_set = true;
    } else if (arg == "--fault") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      req.debug.fault = s;
    } else if (arg == "--crash-signal") {
      if (!next_u64(&req.debug.crash_signal)) return usage(argv[0]);
    } else if (arg == "--rlimit-mb") {
      if (!next_u64(&req.debug.rlimit_mb)) return usage(argv[0]);
    } else if (arg == "--timeout-ms" || arg == "--timeout") {
      if (!next_u64(&policy.timeout_ms)) return usage(argv[0]);
    } else if (arg == "--retries") {
      std::uint64_t v = 0;
      if (!next_u64(&v) || v > 1000) return usage(argv[0]);
      policy.retries = static_cast<unsigned>(v);
    } else if (arg == "--hold-ms") {
      if (!next_u64(&req.debug.hold_ms)) return usage(argv[0]);
    } else if (arg == "--throttle-us") {
      if (!next_u64(&req.debug.throttle_us)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() && (tcp_host.empty() || tcp_port < 0)) {
    return usage(argv[0]);
  }
  if (req.engine.empty() && !wait_ready_set) return usage(argv[0]);

  quanta::svc::Endpoint ep;
  ep.socket_path = socket_path;
  if (!tcp_host.empty()) ep.host = tcp_host;
  ep.port = tcp_port;

  std::string error;
  if (wait_ready_set) {
    if (!quanta::svc::wait_ready(ep, wait_ready_ms, &error)) {
      std::fprintf(stderr, "quanta_client: %s\n", error.c_str());
      return 1;
    }
    if (req.engine.empty()) return 0;  // --wait-ready alone: readiness gate
  }
  if (builtin) {
    quanta::svc::Client client;
    client.set_timeout_ms(policy.timeout_ms);
    const bool connected =
        socket_path.empty() ? client.connect_tcp(tcp_host, tcp_port, &error)
                            : client.connect_unix(socket_path, &error);
    quanta::svc::WireMap reply;
    if (!connected || !client.call(to_wire(req), &reply, &error)) {
      std::fprintf(stderr, "quanta_client: %s\n", error.c_str());
      return client.last_transport_error() ==
                     quanta::svc::TransportError::kTruncated
                 ? 7
                 : 1;
    }
    for (const auto& [key, value] : reply.fields()) {
      std::printf("%s=%s\n", key.c_str(), value.c_str());
    }
    const std::string* status = reply.get("status");
    return (status != nullptr && *status == "ok") ? 0 : 1;
  }

  quanta::svc::Response resp;
  quanta::svc::TransportError te = quanta::svc::TransportError::kNone;
  if (!quanta::svc::analyze_with_retry(ep, policy, req, &resp, &error, &te)) {
    if (te == quanta::svc::TransportError::kNone && !error.empty() &&
        resp.status != quanta::svc::Status::kOk) {
      // Retries exhausted on overload/shutdown answers: report the final
      // daemon status like a one-shot call would.
      std::printf("status=%s error=%s\n", quanta::svc::to_string(resp.status),
                  resp.error.c_str());
      return status_exit_code(resp.status, resp.verdict);
    }
    std::fprintf(stderr, "quanta_client: %s\n", error.c_str());
    return te == quanta::svc::TransportError::kTruncated ? 7 : 1;
  }
  if (resp.status != quanta::svc::Status::kOk) {
    std::printf("status=%s error=%s\n", quanta::svc::to_string(resp.status),
                resp.error.c_str());
    return status_exit_code(resp.status, resp.verdict);
  }
  std::printf("status=ok cached=%d verdict=%s stored=%llu explored=%llu "
              "transitions=%llu extra=%lld",
              resp.cached ? 1 : 0, quanta::common::to_string(resp.verdict),
              static_cast<unsigned long long>(resp.stored),
              static_cast<unsigned long long>(resp.explored),
              static_cast<unsigned long long>(resp.transitions),
              static_cast<long long>(resp.extra));
  if (resp.has_value) std::printf(" value=%.17g", resp.value);
  if (!resp.resume.empty()) std::printf(" resume=%s", resp.resume.c_str());
  if (resp.ticket != 0) {
    std::printf(" ticket=%llu", static_cast<unsigned long long>(resp.ticket));
  }
  std::printf("\n");
  return status_exit_code(resp.status, resp.verdict);
}
