// quantad — the analysis-as-a-service daemon (README "Running as a
// service"). Binds the configured listeners, serves governed analysis
// requests until SIGINT/SIGTERM, then shuts down gracefully: in-flight
// jobs are cancelled at their next budget poll and every connected
// session receives its final response.
//
//   quantad --socket /tmp/quantad.sock [--tcp-port N] [--ckpt-dir DIR]
//           [--jobs N] [--queue-depth N] [--cache-mem BYTES]
//           [--inflight-mem BYTES] [--retries N] [--ckpt-ttl SECONDS]
//           [--state-dir DIR] [--debug]
//
// The flags are the only way to set the daemon's sizing; it reads no
// environment variable of its own. Defaults and bounds (src/svc/server.h):
// --jobs one per hardware thread, at most 1024; --queue-depth 64, at most
// 2^20; --cache-mem 64 MiB, at most 1 TiB; --retries 2, at most 1000;
// --ckpt-ttl 86400 s, at most 2^30 s. A value out of range is reported
// and the daemon exits 1 before it binds or forks anything.
// Jobs run in sandboxed worker processes: a crashing engine fails one
// job, never the daemon; crashed jobs are retried --retries times
// resuming from their last checkpoint, then quarantined. Unclaimed resume
// checkpoints expire after --ckpt-ttl seconds.
// --state-dir DIR makes the daemon durable: a write-ahead job journal and
// an on-disk cache segment live there, so a restart reloads the result
// cache, restores the quarantine set and replays incomplete jobs to
// completion (README "Restarting quantad").
// --debug additionally honors the hold_ms/throttle_us request pacing
// fields and the fault/crash_signal/rlimit_mb crash drills; production
// daemons reject them as bad requests.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <limits>
#include <string>

#include <unistd.h>

#include "common/env.h"
#include "svc/server.h"

namespace {

using quanta::common::parse_u64;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [--tcp-port N] [--ckpt-dir DIR] [--jobs N]\n"
      "          [--queue-depth N] [--cache-mem BYTES] [--inflight-mem BYTES]\n"
      "          [--retries N] [--ckpt-ttl SECS] [--state-dir DIR]\n"
      "          [--debug]\n",
      argv0);
  return 1;
}

/// Narrows a flag value to an unsigned field, keeping a too-large value
/// too large so Server::start reports it instead of a wrapped one.
unsigned saturate(std::uint64_t v) {
  return static_cast<unsigned>(
      std::min<std::uint64_t>(v, std::numeric_limits<unsigned>::max()));
}

}  // namespace

int main(int argc, char** argv) {
  quanta::svc::ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      cfg.socket_path = s;
    } else if (arg == "--tcp-port") {
      const auto v = parse_u64(next());
      if (!v || *v > 65535) return usage(argv[0]);
      cfg.tcp_port = static_cast<int>(*v);
    } else if (arg == "--ckpt-dir") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      cfg.ckpt_dir = s;
    } else if (arg == "--jobs") {
      const auto v = parse_u64(next());
      if (!v || *v == 0) return usage(argv[0]);
      cfg.jobs = saturate(*v);
    } else if (arg == "--queue-depth") {
      const auto v = parse_u64(next());
      if (!v || *v == 0) return usage(argv[0]);
      cfg.queue_depth = *v;
    } else if (arg == "--cache-mem") {
      const auto v = parse_u64(next());
      if (!v || *v == 0) return usage(argv[0]);
      cfg.cache_bytes = *v;
    } else if (arg == "--inflight-mem") {
      const auto v = parse_u64(next());
      if (!v || *v == 0) return usage(argv[0]);
      cfg.inflight_bytes = *v;
    } else if (arg == "--retries") {
      const auto v = parse_u64(next());
      if (!v) return usage(argv[0]);
      cfg.retries = saturate(*v);
    } else if (arg == "--ckpt-ttl") {
      const auto v = parse_u64(next());
      if (!v || *v == 0) return usage(argv[0]);
      cfg.ckpt_ttl_s = *v;
    } else if (arg == "--state-dir") {
      const char* s = next();
      if (s == nullptr) return usage(argv[0]);
      cfg.state_dir = s;
    } else if (arg == "--debug") {
      cfg.enable_debug = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.socket_path.empty() && cfg.tcp_port < 0) return usage(argv[0]);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  quanta::svc::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "quantad: %s\n", error.c_str());
    return 1;
  }
  std::printf("quantad: listening%s%s%s (isolated workers%s)\n",
              cfg.socket_path.empty() ? "" : (" on " + cfg.socket_path).c_str(),
              server.tcp_port() >= 0 ? " tcp 127.0.0.1:" : "",
              server.tcp_port() >= 0
                  ? std::to_string(server.tcp_port()).c_str()
                  : "",
              cfg.state_dir.empty() ? "" : ", durable state");
  std::fflush(stdout);

  while (g_stop == 0) {
    ::pause();  // signals are the only exit path
  }
  server.stop();
  const auto stats = server.stats();
  std::printf(
      "quantad: exiting requests=%llu executed=%llu cache_hits=%llu "
      "overloads=%llu worker_crashes=%llu quarantined=%llu\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.jobs_executed),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.overloads),
      static_cast<unsigned long long>(stats.supervisor.crashes),
      static_cast<unsigned long long>(stats.supervisor.quarantined));
  return 0;
}
