// The analysis-as-a-service server: a long-lived daemon core multiplexing
// governed analysis requests from many concurrent sessions over Unix / TCP
// stream sockets.
//
// Life of a request (DESIGN.md "Analysis service"):
//
//   frame → parse/validate → [svc builtins] → registry lookup
//         → ResultCache probe (hit: answer in O(1), engine never invoked)
//         → quarantine gate → journal admit record
//         → JobQueue admission (reject kOverload under pressure)
//         → runner dispatches to a supervised worker process, which runs
//           the engine under common::Budget + checkpoint policy
//         → budget trip: snapshot saved, response carries a resume token
//         → settle: cache the completed result, drop its claimed chain,
//           finish the journal ticket → framed response
//
// Journal replay (run_recovery) feeds the jobs a killed daemon left
// pending through the same worker dispatch and the same settle step.
//
// Resume tokens: the 16-hex-digit FNV fingerprint of the canonical job
// key. A budget-tripped job saves its checkpoint chain under
// <ckpt_dir>/job-<engine>-<token>.qckpt; a client re-submitting the same
// query with that token resumes it (`src/ckpt` guarantees the resumed
// result is bit-identical to an uninterrupted run). A token that does not
// match the re-submitted query is rejected — and even a forged match is
// harmless, because the engine re-validates its own fingerprint inside
// the snapshot.
//
// Shutdown discipline (stop(), also the destructor): listeners are shut
// down and acceptors joined; the JobQueue cancels every in-flight job and
// drains (all waiting sessions unblock with a result); session sockets are
// then read-shutdown so blocked reads see EOF, and session threads are
// joined. No step can deadlock on another.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "svc/job_queue.h"
#include "svc/journal.h"
#include "svc/registry.h"
#include "svc/request.h"
#include "svc/result_cache.h"
#include "svc/supervisor.h"

namespace quanta::svc {

struct ServerConfig {
  /// Unix-domain listener path; a stale socket file (SIGKILLed daemon) is
  /// unlinked before bind. Empty = no unix listener.
  std::string socket_path;
  /// 127.0.0.1 TCP listener; -1 = off, 0 = ephemeral (see Server::tcp_port).
  int tcp_port = -1;
  /// Job runners (and worker processes, one each); 0 = one per hardware
  /// thread, at least 1. At most 1024.
  unsigned jobs = 0;
  /// Admitted jobs waiting for a runner before load-shedding rejects with
  /// kOverload. 1 to 2^20.
  std::size_t queue_depth = 64;
  /// Result-cache byte budget. 1 B to 1 TiB.
  std::size_t cache_bytes = 64ull << 20;
  /// Admission ceiling on the summed memory charges of queued + running
  /// jobs; a job is charged its memory budget, or 256 MiB when the request
  /// carries none. At least 1.
  std::size_t inflight_bytes = 4ull << 30;
  /// Directory for resume-token checkpoints (created if missing); empty
  /// disables checkpointing and resume tokens.
  std::string ckpt_dir;
  /// Honor Request::debug: hold_ms / throttle_us pacing and the fault /
  /// crash_signal / rlimit_mb crash drills (tests, CI smoke and benches
  /// only — a production daemon rejects them).
  bool enable_debug = false;
  /// Compatibility only. Every job runs in a prefork pool of sandboxed
  /// worker processes (one per runner), so a crashing engine fails one
  /// job, never the service; start() fails when this is false. The field
  /// stays because perfbench/src/svc_load.cpp assigns it; delete it with
  /// the next change to perfbench.
  bool isolate = true;
  /// Crash re-dispatches per job before its fingerprint is quarantined
  /// (a query crashing retries+1 times in one submission is poisoned).
  /// At most 1000.
  unsigned retries = 2;
  /// Unclaimed resume-checkpoint chains older than this many seconds are
  /// garbage collected (age = the chain's newest file). 1 s to 2^30 s.
  /// Claimed chains are removed as soon as their job completes.
  std::uint64_t ckpt_ttl_s = 24 * 60 * 60;
  /// Durable-state directory (created if missing): the write-ahead job
  /// journal (restarts replay incomplete jobs and restore the quarantine
  /// set and --ticket answers) and the cache segment (restarts reload the
  /// cache, so post-restart traffic is warm and byte-identical) live here.
  /// Empty = no durability, the daemon is amnesiac across restarts. Any
  /// failure to set the directory or its files up degrades to
  /// in-memory-only operation, never a failed boot.
  std::string state_dir;
};

/// One TTL sweep over `dir`: removes every "job-*.qckpt*" file (a chain
/// log, a writer's temp, a leftover of an older layout) that is at least
/// `ttl_s` seconds old — each append refreshes a live chain's mtime.
/// Returns the number of files removed. The server runs this at start()
/// and amortized afterwards.
std::size_t gc_checkpoints(const std::string& dir, std::uint64_t ttl_s);

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();  ///< calls stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds listeners and starts acceptor/runner threads. False (with a
  /// reason in *error) on any setup failure; the server is then inert. A
  /// ServerConfig value outside its documented range fails here before
  /// anything is bound, forked or started.
  bool start(std::string* error);
  /// Graceful shutdown as documented above. Idempotent.
  void stop();

  /// Resolved TCP port (useful with cfg.tcp_port == 0); -1 when TCP is off.
  int tcp_port() const { return tcp_port_; }

  struct Stats {
    std::uint64_t accepted = 0;       ///< connections accepted
    std::uint64_t accept_faults = 0;  ///< connections dropped by svc.accept
    std::uint64_t requests = 0;       ///< frames parsed into requests
    std::uint64_t bad_requests = 0;
    std::uint64_t overloads = 0;      ///< admission rejections served
    std::uint64_t jobs_executed = 0;  ///< engine invocations (cache hits skip)
    std::uint64_t quarantine_hits = 0;  ///< jobs answered from the poison list
    std::uint64_t ckpt_gc_removed = 0;  ///< checkpoint files expired by GC
    bool journaling = false;          ///< job journal currently healthy
    std::uint64_t tickets_issued = 0;   ///< this process (replay seeds counter)
    std::uint64_t tickets_pending = 0;  ///< journaled jobs awaiting completion
    std::uint64_t ticket_answers = 0;   ///< answers retained for --ticket
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_failures = 0;
    std::uint64_t journal_replayed = 0;  ///< incomplete jobs found at boot
    std::uint64_t journal_dropped = 0;   ///< corrupt records dropped at boot
    std::uint64_t jobs_recovered = 0;    ///< replayed jobs completed by now
    bool recovery_done = false;          ///< replay queue fully drained
    ResultCache::Stats cache;
    JobQueue::Stats queue;
    Supervisor::Stats supervisor;     ///< zeros before start()
  };
  Stats stats() const;

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  bool listen_unix(std::string* error);
  bool listen_tcp(std::string* error);
  void accept_loop(int listen_fd);
  void session_loop(Session* session);
  void reap_finished_sessions();

  /// Full request pipeline; always returns a well-formed response map.
  WireMap handle_payload(const std::string& payload);
  WireMap handle_builtin(const Request& req);
  WireMap handle_ticket_fetch(const Request& req);
  Response run_analysis(const Request& req);
  /// Runs one job in the worker pool (after the debug hold, if any).
  Response execute_job(const Request& req, std::uint64_t fingerprint,
                       const common::Budget& budget,
                       const ckpt::Options& checkpoint);
  /// Poison-job gate: true (and counted as a quarantine hit) when `req`
  /// honors the quarantine and its fingerprint is on the poison list.
  bool held_by_quarantine(const Request& req, std::uint64_t fingerprint);
  /// The one post-run sequence of live and replayed jobs: a completed
  /// answer is cached (if the request allows), its claimed checkpoint
  /// chain removed and, after a quarantine-bypass run, its poison entry
  /// cleared; then the ticket is finished. A job cancelled by shutdown
  /// leaves its ticket pending for the next boot and returns false.
  bool settle(const Request& req, const PreparedJob& prepared,
              const ckpt::Options& checkpoint, std::uint64_t ticket,
              const Response& resp);
  /// Amortized TTL sweep (at most once per minute, or per TTL if shorter).
  void maybe_gc_checkpoints();

  /// Boot-time durable-state setup: journal replay + compaction, ticket
  /// tables, quarantine restore, cache segment reload. Never fails the
  /// boot; any broken piece degrades to in-memory-only with a warning.
  void setup_durable_state();
  /// Records a finished ticket (answer table + journal complete record).
  void finish_ticket(std::uint64_t ticket, std::uint64_t fingerprint,
                     const Response& canonical);
  /// Background replay of journaled incomplete jobs (runs after start()).
  void run_recovery();

  ServerConfig cfg_;
  std::unique_ptr<JobQueue> queue_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<Supervisor> supervisor_;

  std::unique_ptr<Journal> journal_;
  mutable std::mutex journal_mu_;  ///< journal appends + ticket tables
  std::map<std::uint64_t, std::string> ticket_answers_;  ///< canonical JSON
  std::unordered_set<std::uint64_t> tickets_pending_;
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> tickets_issued_{0};
  std::atomic<std::uint64_t> journal_replayed_{0};
  std::atomic<std::uint64_t> journal_dropped_{0};
  std::atomic<std::uint64_t> jobs_recovered_{0};
  std::atomic<bool> recovery_done_{false};
  std::vector<PendingJob> recovery_jobs_;
  std::thread recovery_thread_;
  common::CancelToken recovery_cancel_;

  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex lifecycle_mu_;  ///< serializes start/stop

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::thread> acceptors_;

  std::mutex sessions_mu_;
  std::list<std::unique_ptr<Session>> sessions_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> accept_faults_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> overloads_{0};
  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> quarantine_hits_{0};
  std::atomic<std::uint64_t> ckpt_gc_removed_{0};

  std::mutex gc_mu_;
  std::chrono::steady_clock::time_point last_gc_{};
};

}  // namespace quanta::svc
