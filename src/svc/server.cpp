#include "svc/server.h"

#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <future>
#include <thread>
#include <utility>

#include "ckpt/delta.h"
#include "common/fault.h"
#include "svc/wire.h"

namespace quanta::svc {

namespace {

/// Memory charge of a job whose request carries no memory budget.
constexpr std::size_t kDefaultJobCharge = 256ull << 20;

/// Upper bounds of the ServerConfig sizing fields (see server.h).
constexpr unsigned kMaxJobs = 1024;
constexpr std::size_t kMaxQueueDepth = std::size_t{1} << 20;
constexpr std::size_t kMaxCacheBytes = std::size_t{1} << 40;
constexpr unsigned kMaxRetries = 1000;
constexpr std::uint64_t kMaxCkptTtlS = std::uint64_t{1} << 30;

/// Empty when every sizing field of `cfg` is in range, else the reason.
std::string check_sizing(const ServerConfig& cfg) {
  struct Bound {
    const char* field;
    std::uint64_t value, lo, hi;
  };
  const Bound bounds[] = {
      {"jobs", cfg.jobs, 0, kMaxJobs},
      {"queue_depth", cfg.queue_depth, 1, kMaxQueueDepth},
      {"cache_bytes", cfg.cache_bytes, 1, kMaxCacheBytes},
      {"inflight_bytes", cfg.inflight_bytes, 1, UINT64_MAX},
      {"retries", cfg.retries, 0, kMaxRetries},
      {"ckpt_ttl_s", cfg.ckpt_ttl_s, 1, kMaxCkptTtlS},
  };
  for (const Bound& b : bounds) {
    if (b.value < b.lo || b.value > b.hi) {
      return std::string(b.field) + " = " + std::to_string(b.value) +
             " is out of range [" + std::to_string(b.lo) + ", " +
             std::to_string(b.hi) + "]";
    }
  }
  return "";
}

/// The deterministic poison-list answer: every quarantine hit (live or
/// during journal replay) serves these exact bytes.
Response quarantine_response() {
  Response r = stopped_response(common::StopReason::kFault);
  r.error = "quarantined: repeated worker crashes on this query";
  return r;
}

}  // namespace

std::size_t gc_checkpoints(const std::string& dir, std::uint64_t ttl_s) {
  if (dir.empty() || ttl_s == 0) return 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  // A chain is one "job-*.qckpt" log plus the temps of its writers. Every
  // append touches the log, so each file's own mtime is its age: a growing
  // chain stays fresh, while an orphan (budget-tripped job whose token was
  // never claimed), a killed writer's temp and the ".dN" delta files of the
  // older per-delta layout go cold and expire.
  const std::time_t now = std::time(nullptr);
  std::vector<std::string> expired;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("job-", 0) != 0) continue;
    if (name.find(".qckpt") == std::string::npos) continue;
    const std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode) &&
        now - st.st_mtime >= static_cast<std::time_t>(ttl_s)) {
      expired.push_back(path);
    }
  }
  ::closedir(d);
  std::size_t removed = 0;
  for (const std::string& path : expired) {
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  return removed;
}

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {}

Server::~Server() { stop(); }

bool Server::listen_unix(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + cfg_.socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) {
    *error = std::string("socket(AF_UNIX): ") + std::strerror(errno);
    return false;
  }
  // A SIGKILLed daemon leaves its socket file behind; rebinding over it is
  // the clean-restart path the CI smoke exercises.
  ::unlink(cfg_.socket_path.c_str());
  if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(unix_fd_, 64) < 0) {
    *error = "bind/listen " + cfg_.socket_path + ": " + std::strerror(errno);
    ::close(unix_fd_);
    unix_fd_ = -1;
    return false;
  }
  return true;
}

bool Server::listen_tcp(std::string* error) {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_fd_ < 0) {
    *error = std::string("socket(AF_INET): ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(tcp_fd_, 64) < 0) {
    *error = "bind/listen 127.0.0.1:" + std::to_string(cfg_.tcp_port) + ": " +
             std::strerror(errno);
    ::close(tcp_fd_);
    tcp_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    tcp_port_ = ntohs(bound.sin_port);
  }
  return true;
}

bool Server::start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  std::string local_error;
  if (error == nullptr) error = &local_error;
  if (started_) {
    *error = "server already started";
    return false;
  }
  if (cfg_.socket_path.empty() && cfg_.tcp_port < 0) {
    *error = "no listener configured (socket_path or tcp_port)";
    return false;
  }
  if (!cfg_.isolate) {
    *error = "ServerConfig::isolate=false is not supported: every job runs "
             "in a supervised worker process";
    return false;
  }
  if (std::string why = check_sizing(cfg_); !why.empty()) {
    *error = std::move(why);
    return false;
  }
  if (cfg_.jobs == 0) {
    cfg_.jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  if (!cfg_.ckpt_dir.empty()) {
    if (::mkdir(cfg_.ckpt_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      *error = "mkdir " + cfg_.ckpt_dir + ": " + std::strerror(errno);
      return false;
    }
  }
  if (!cfg_.socket_path.empty() && !listen_unix(error)) return false;
  if (cfg_.tcp_port >= 0 && !listen_tcp(error)) {
    if (unix_fd_ >= 0) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      ::unlink(cfg_.socket_path.c_str());
    }
    return false;
  }
  if (!cfg_.ckpt_dir.empty()) {
    // Expire chains orphaned across daemon restarts before serving anyone.
    ckpt_gc_removed_.fetch_add(gc_checkpoints(cfg_.ckpt_dir, cfg_.ckpt_ttl_s),
                               std::memory_order_relaxed);
    last_gc_ = std::chrono::steady_clock::now();
  }
  SupervisorConfig scfg;
  scfg.workers = cfg_.jobs;
  scfg.retries = cfg_.retries;
  // Journaling hooks: poison-list transitions and worker deaths go to the
  // write-ahead journal, so a restart reconstructs the quarantine set.
  // Both no-op until setup_durable_state() opens the journal.
  scfg.quarantine_changed = [this](std::uint64_t fp, bool added) {
    std::lock_guard<std::mutex> lock(journal_mu_);
    if (journal_ == nullptr) return;
    if (added) {
      journal_->quarantine(fp);
    } else {
      journal_->clear_quarantine(fp);
    }
  };
  scfg.job_crashed = [this](std::uint64_t fp, const std::string& detail) {
    std::lock_guard<std::mutex> lock(journal_mu_);
    if (journal_ != nullptr) journal_->crash(0, fp, detail);
  };
  supervisor_ = std::make_unique<Supervisor>(scfg);
  if (!supervisor_->start(error)) {
    supervisor_.reset();
    if (unix_fd_ >= 0) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      ::unlink(cfg_.socket_path.c_str());
    }
    if (tcp_fd_ >= 0) {
      ::close(tcp_fd_);
      tcp_fd_ = -1;
    }
    return false;
  }
  queue_ = std::make_unique<JobQueue>(JobQueue::Limits{
      cfg_.jobs, cfg_.queue_depth, cfg_.inflight_bytes});
  cache_ = std::make_unique<ResultCache>(cfg_.cache_bytes);
  setup_durable_state();
  if (unix_fd_ >= 0) {
    acceptors_.emplace_back([this, fd = unix_fd_] { accept_loop(fd); });
  }
  if (tcp_fd_ >= 0) {
    acceptors_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });
  }
  if (!recovery_jobs_.empty()) {
    recovery_thread_ = std::thread([this] { run_recovery(); });
  } else {
    recovery_done_.store(true, std::memory_order_release);
  }
  started_ = true;
  return true;
}

void Server::setup_durable_state() {
  if (cfg_.state_dir.empty()) return;
  if (::mkdir(cfg_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr,
                 "quantad: mkdir %s: %s; continuing without durable state\n",
                 cfg_.state_dir.c_str(), std::strerror(errno));
    return;
  }
  const std::string path = cfg_.state_dir + "/journal.qjrnl";
  JournalReplay replay = Journal::replay(path);
  if (replay.dropped > 0 || replay.torn_tail ||
      (replay.fresh && replay.note != "no log file")) {
    std::fprintf(stderr,
                 "quantad: journal %s degraded (%s, %zu records dropped)\n",
                 path.c_str(),
                 replay.note.empty() ? "recovered" : replay.note.c_str(),
                 replay.dropped);
  }
  // Compact before any state moves out of `replay` (open serializes it
  // back to disk and appends behind it). Failure costs durability, never
  // the boot.
  auto journal = std::make_unique<Journal>();
  std::string err;
  if (journal->open(path, replay, &err)) {
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_ = std::move(journal);
  } else {
    std::fprintf(stderr,
                 "quantad: %s; continuing without journaling\n", err.c_str());
  }
  next_ticket_.store(replay.next_ticket, std::memory_order_relaxed);
  journal_replayed_.store(replay.pending.size(), std::memory_order_relaxed);
  journal_dropped_.store(replay.dropped, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    ticket_answers_ = std::move(replay.answers);
    for (const PendingJob& job : replay.pending) {
      tickets_pending_.insert(job.ticket);
    }
  }
  supervisor_->restore_quarantine(replay.quarantined);
  recovery_jobs_ = std::move(replay.pending);
  std::string cache_err;
  if (!cache_->enable_persistence(cfg_.state_dir + "/cache.qcseg",
                                  &cache_err)) {
    std::fprintf(stderr, "quantad: %s; cache stays in-memory-only\n",
                 cache_err.c_str());
  }
}

void Server::finish_ticket(std::uint64_t ticket, std::uint64_t fingerprint,
                           const Response& response) {
  // Store the canonical cold-run bytes: cached=0 and no ticket field, the
  // exact JSON an uninterrupted fresh run of this query would serve. A
  // --ticket fetch re-serializes with only `cached` flipped, mirroring the
  // result cache's byte-identity discipline.
  Response canon = response;
  canon.cached = false;
  canon.ticket = 0;
  const std::string json = to_wire(canon).to_json();
  std::lock_guard<std::mutex> lock(journal_mu_);
  tickets_pending_.erase(ticket);
  ticket_answers_[ticket] = json;
  while (ticket_answers_.size() > kMaxTicketAnswers) {
    ticket_answers_.erase(ticket_answers_.begin());  // oldest ticket first
  }
  if (journal_ != nullptr) journal_->complete(ticket, fingerprint, json);
}

void Server::run_recovery() {
  for (const PendingJob& pending : recovery_jobs_) {
    if (stop_.load(std::memory_order_acquire) || recovery_cancel_.cancelled()) {
      break;  // remaining jobs stay pending; the next boot resumes them
    }
    std::string error;
    const auto map = WireMap::parse_json(pending.request_json, &error);
    auto req = map ? parse_request(*map, &error) : std::optional<Request>();
    if (!req) {
      finish_ticket(
          pending.ticket, pending.fingerprint,
          make_error(Status::kError, "journaled request unreadable: " + error));
      continue;
    }
    const auto prepared = prepare_job(*req, &error);
    if (!prepared) {
      finish_ticket(pending.ticket, pending.fingerprint,
                    make_error(Status::kBadRequest, error));
      continue;
    }
    if (held_by_quarantine(*req, prepared->fingerprint)) {
      finish_ticket(pending.ticket, prepared->fingerprint,
                    quarantine_response());
      continue;
    }
    // Continue from whatever periodic snapshot the killed daemon managed to
    // write; a missing or torn chain degrades to a fresh start, and either
    // way src/ckpt guarantees bit-identity with an uninterrupted run.
    const ckpt::Options checkpoint =
        job_checkpoint(cfg_.ckpt_dir, *req, prepared->fingerprint,
                       /*resume=*/true);
    // Replayed jobs bypass JobQueue admission: they were admitted before
    // the crash, and the supervisor slots / engine budgets still bound the
    // actual resource use. Recovery runs them one at a time behind live
    // traffic.
    const Response resp =
        execute_job(*req, prepared->fingerprint,
                    job_budget(*req, &recovery_cancel_), checkpoint);
    if (!settle(*req, *prepared, checkpoint, pending.ticket, resp)) {
      break;  // shutting down again: the job stays pending for the next boot
    }
    jobs_recovered_.fetch_add(1, std::memory_order_relaxed);
  }
  recovery_done_.store(true, std::memory_order_release);
}

void Server::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  // 0. Cancel recovery: a replayed job parks at its next budget poll (its
  //    periodic checkpoints already persisted) and stays journal-pending,
  //    so the next boot carries on from where this one let go.
  recovery_cancel_.cancel();
  // 1. Wake the acceptors: shutdown() unblocks a blocked accept(2) (close
  //    alone does not, reliably), then join and close.
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  for (std::thread& t : acceptors_) {
    if (t.joinable()) t.join();
  }
  acceptors_.clear();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  unix_fd_ = tcp_fd_ = -1;
  // 2. Cancel + drain the job queue: every session blocked on a job's
  //    promise receives its (kCancelled) result. In-flight worker
  //    dispatches see their CancelToken fire, kill their worker and return
  //    kCancelled — so the pool is idle before step 2b kills it.
  queue_->shutdown();
  supervisor_->shutdown();
  // 2c. Join recovery after the queue and pool are down: its in-flight job
  //     has seen the cancel token (or its killed worker) by now.
  if (recovery_thread_.joinable()) recovery_thread_.join();
  // 3. Unblock session reads (EOF) but let queued responses flush, then
  //    join. New requests racing in were answered with status=shutdown.
  {
    std::lock_guard<std::mutex> slock(sessions_mu_);
    for (auto& s : sessions_) {
      if (!s->done.load(std::memory_order_acquire)) {
        ::shutdown(s->fd, SHUT_RD);
      }
    }
  }
  for (;;) {
    std::unique_ptr<Session> victim;
    {
      std::lock_guard<std::mutex> slock(sessions_mu_);
      if (sessions_.empty()) break;
      victim = std::move(sessions_.front());
      sessions_.pop_front();
    }
    if (victim->thread.joinable()) victim->thread.join();
    ::close(victim->fd);
  }
  if (!cfg_.socket_path.empty()) ::unlink(cfg_.socket_path.c_str());
  started_ = false;
}

void Server::reap_finished_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (stop_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down underneath us
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    reap_finished_sessions();
    try {
      common::FaultInjector::site("svc.accept");
    } catch (...) {
      // Injected accept fault: this one connection is dropped, the daemon
      // keeps serving — exactly the degradation QUANTA_FAULT CI asserts.
      accept_faults_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    raw->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] { session_loop(raw); });
  }
}

void Server::session_loop(Session* session) {
  FrameReader reader(session->fd);
  std::string payload;
  while (!stop_.load(std::memory_order_acquire)) {
    const FrameStatus fs = reader.read(&payload);
    if (fs != FrameStatus::kOk) {
      // kTooLarge is the one protocol error worth answering before the
      // drop — the peer is alive, merely talking garbage.
      if (fs == FrameStatus::kTooLarge) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        write_frame(session->fd,
                    to_wire(make_error(Status::kBadRequest, "frame too large"))
                        .to_json());
      }
      break;
    }
    const WireMap response = handle_payload(payload);
    if (!write_frame(session->fd, response.to_json())) break;
  }
  ::shutdown(session->fd, SHUT_RDWR);
  session->done.store(true, std::memory_order_release);
}

WireMap Server::handle_payload(const std::string& payload) {
  std::string error;
  const auto map = WireMap::parse_json(payload, &error);
  if (!map) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return to_wire(make_error(Status::kBadRequest, "malformed frame: " + error));
  }
  const auto req = parse_request(*map, &error);
  if (!req) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return to_wire(make_error(Status::kBadRequest, error));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (req->engine == "svc") return handle_builtin(*req);
  const Response resp = run_analysis(*req);
  if (resp.status == Status::kBadRequest) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
  } else if (resp.status == Status::kOverload) {
    overloads_.fetch_add(1, std::memory_order_relaxed);
  }
  return to_wire(resp);
}

WireMap Server::handle_builtin(const Request& req) {
  if (req.query == "ping" || req.query.empty()) {
    WireMap m;
    m.set("status", "ok");
    return m;
  }
  if (req.query == "result") return handle_ticket_fetch(req);
  if (req.query == "stats") {
    const Stats s = stats();
    WireMap m;
    m.set("status", "ok");
    m.set_u64("accepted", s.accepted);
    m.set_u64("accept_faults", s.accept_faults);
    m.set_u64("requests", s.requests);
    m.set_u64("bad_requests", s.bad_requests);
    m.set_u64("overloads", s.overloads);
    m.set_u64("jobs_executed", s.jobs_executed);
    m.set_u64("workers_spawned", s.supervisor.spawned);
    m.set_u64("worker_crashes", s.supervisor.crashes);
    m.set_u64("job_retries", s.supervisor.retries);
    m.set_u64("resumed_retries", s.supervisor.resumed_retries);
    m.set_u64("worker_kills", s.supervisor.kills);
    m.set_u64("quarantined", s.supervisor.quarantined);
    m.set_u64("quarantine_hits", s.quarantine_hits);
    m.set_u64("ckpt_gc_removed", s.ckpt_gc_removed);
    m.set("journaling", s.journaling ? "1" : "0");
    m.set_u64("tickets_issued", s.tickets_issued);
    m.set_u64("tickets_pending", s.tickets_pending);
    m.set_u64("ticket_answers", s.ticket_answers);
    m.set_u64("journal_appends", s.journal_appends);
    m.set_u64("journal_failures", s.journal_failures);
    m.set_u64("journal_replayed", s.journal_replayed);
    m.set_u64("journal_dropped", s.journal_dropped);
    m.set_u64("jobs_recovered", s.jobs_recovered);
    m.set("recovery_done", s.recovery_done ? "1" : "0");
    m.set("cache_persist", s.cache.persist_enabled ? "1" : "0");
    m.set_u64("cache_persist_loaded", s.cache.persist_loaded);
    m.set_u64("cache_persist_dropped", s.cache.persist_dropped);
    m.set_u64("cache_persist_failures", s.cache.persist_failures);
    m.set_u64("cache_hits", s.cache.hits);
    m.set_u64("cache_misses", s.cache.misses);
    m.set_u64("cache_entries", s.cache.entries);
    m.set_u64("cache_bytes", s.cache.bytes);
    m.set_u64("cache_evictions", s.cache.evictions);
    m.set_u64("queued", s.queue.queued);
    m.set_u64("running", s.queue.running);
    m.set_u64("rejected_queue", s.queue.rejected_queue);
    m.set_u64("rejected_memory", s.queue.rejected_memory);
    return m;
  }
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
  return to_wire(make_error(Status::kBadRequest,
                            "unknown svc builtin '" + req.query + "'"));
}

WireMap Server::handle_ticket_fetch(const Request& req) {
  if (req.ticket == 0) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    return to_wire(make_error(Status::kBadRequest,
                              "builtin 'result' requires a nonzero 'ticket'"));
  }
  std::string json;
  bool pending = false;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    const auto it = ticket_answers_.find(req.ticket);
    if (it != ticket_answers_.end()) {
      json = it->second;
    } else {
      pending = tickets_pending_.count(req.ticket) != 0;
    }
  }
  if (!json.empty()) {
    const auto map = WireMap::parse_json(json, nullptr);
    const auto resp = map ? parse_response(*map, nullptr)
                          : std::optional<Response>();
    if (!resp) {
      return to_wire(make_error(Status::kError, "stored answer unreadable"));
    }
    // Same discipline as a cache hit: the stored canonical bytes with only
    // the `cached` flag flipped, so `cut -f3-` diffs stay byte-exact.
    Response answer = *resp;
    answer.cached = true;
    return to_wire(answer);
  }
  if (pending) {
    return to_wire(make_error(
        Status::kError, "ticket " + std::to_string(req.ticket) +
                            " is still pending (replay or execution in "
                            "progress); retry shortly"));
  }
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
  return to_wire(make_error(
      Status::kBadRequest,
      "unknown ticket " + std::to_string(req.ticket) +
          " (never issued, or its answer aged out of the journal)"));
}

Response Server::run_analysis(const Request& req) {
  std::string error;
  const auto prepared = prepare_job(req, &error);
  if (!prepared) return make_error(Status::kBadRequest, error);
  if (!cfg_.enable_debug && !req.debug.empty()) {
    return make_error(Status::kBadRequest,
                      "hold_ms/throttle_us/fault/crash_signal/rlimit_mb "
                      "require a --debug daemon");
  }
  if (!req.resume.empty()) {
    if (cfg_.ckpt_dir.empty()) {
      return make_error(Status::kBadRequest,
                        "daemon runs without --ckpt-dir; resume unavailable");
    }
    if (req.resume != fingerprint_token(prepared->fingerprint)) {
      return make_error(Status::kBadRequest,
                        "resume token does not match this query");
    }
  }
  const ckpt::Options checkpoint = job_checkpoint(
      cfg_.ckpt_dir, req, prepared->fingerprint, !req.resume.empty());

  if (req.use_cache) {
    Response hit;
    if (cache_->lookup(prepared->fingerprint, prepared->cache_key, &hit)) {
      hit.cached = true;
      return hit;
    }
  }

  // Poison-job gate, after the cache (a completed result predating the
  // quarantine is still perfectly good) and before admission (a crash loop
  // must cost the pool nothing). The response is deterministic: every hit
  // answers with the same bytes.
  if (held_by_quarantine(req, prepared->fingerprint)) {
    return quarantine_response();
  }

  // Every job reaching execution draws a journal ticket; the admit record
  // hits disk before submission, so a SIGKILL at any later point leaves a
  // replayable trail (cache hits and quarantine answers never get here —
  // they consume no ticket, keeping the sequence deterministic for CI).
  // The record carries no debug knobs: a replay runs the job calm, even on
  // a daemon restarted without --debug.
  const std::uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  tickets_issued_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> jlock(journal_mu_);
    tickets_pending_.insert(ticket);
    if (journal_ != nullptr) {
      Request calm = req;
      calm.debug = {};
      journal_->admit(ticket, prepared->fingerprint, to_wire(calm).to_json());
    }
  }

  // The job context lives on this stack frame, which blocks on the job's
  // promise below — so the runner's references stay valid for the whole
  // run, and JobQueue::shutdown() draining every admitted job guarantees
  // the wait always ends.
  common::CancelToken cancel;
  const common::Budget budget = job_budget(req, &cancel);
  std::promise<Response> done;
  std::future<Response> result = done.get_future();
  JobQueue::Job job;
  job.cancel = &cancel;
  job.mem_charge =
      req.memory_mb != 0 ? (req.memory_mb << 20) : kDefaultJobCharge;
  job.run = [this, &req, &prepared, &budget, &checkpoint, &done, ticket] {
    {
      // Start record at actual execution (it may land after this session's
      // admit or, on an instant runner, race it — replay tolerates both).
      std::lock_guard<std::mutex> jlock(journal_mu_);
      if (journal_ != nullptr) journal_->start(ticket, prepared->fingerprint);
    }
    try {
      done.set_value(
          execute_job(req, prepared->fingerprint, budget, checkpoint));
    } catch (...) {
      // execute_job absorbs everything an engine can throw; this is the
      // belt-and-braces path that keeps the session from deadlocking even
      // if it ever does throw.
      try {
        done.set_value(make_error(Status::kError, "internal job failure"));
      } catch (...) {
      }
    }
  };
  const Admission admission = queue_->submit(req.priority, std::move(job));
  if (admission != Admission::kAdmitted) {
    // The queue refused the job its admit record promised: retire the
    // ticket with the rejection answer so no future boot replays it.
    Response rejected =
        admission == Admission::kShutdown
            ? make_error(Status::kShutdown, "daemon is shutting down")
            : make_error(Status::kOverload, to_string(admission));
    finish_ticket(ticket, prepared->fingerprint, rejected);
    if (req.want_ticket) rejected.ticket = ticket;
    return rejected;
  }
  Response resp = result.get();
  settle(req, *prepared, checkpoint, ticket, resp);
  maybe_gc_checkpoints();
  if (req.want_ticket) resp.ticket = ticket;
  return resp;
}

bool Server::held_by_quarantine(const Request& req, std::uint64_t fingerprint) {
  if (!req.use_quarantine || !supervisor_->quarantined(fingerprint)) {
    return false;
  }
  quarantine_hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Server::settle(const Request& req, const PreparedJob& prepared,
                    const ckpt::Options& checkpoint, std::uint64_t ticket,
                    const Response& resp) {
  if (resp.status == Status::kOk &&
      resp.stop == common::StopReason::kCancelled) {
    // Shutdown took this job down mid-run. Its ticket stays pending: the
    // admit record makes the next boot replay it to completion (resuming
    // from its last periodic checkpoint), so a graceful stop loses zero
    // accepted work.
    return false;
  }
  if (resp.status == Status::kOk &&
      resp.stop == common::StopReason::kCompleted) {
    // Only completed results are cached: a kUnknown verdict depends on the
    // submitting client's budget and must never answer another client.
    // (resp is still ticket-free here, so the cache — and its on-disk
    // segment — stores the canonical cold-run bytes.)
    if (req.use_cache) {
      cache_->insert(prepared.fingerprint, prepared.cache_key, resp);
    }
    // The resume chain (if any) is claimed: dead weight from here on. A
    // completed quarantine-bypass run additionally proves the input no
    // longer crash-loops.
    if (checkpoint.enabled()) ckpt::remove_chain(checkpoint.path);
    if (!req.use_quarantine) supervisor_->clear_quarantine(prepared.fingerprint);
  }
  finish_ticket(ticket, prepared.fingerprint, resp);
  return true;
}

void Server::maybe_gc_checkpoints() {
  if (cfg_.ckpt_dir.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  auto period = std::chrono::seconds(60);
  if (std::chrono::seconds(cfg_.ckpt_ttl_s) < period) {
    period = std::chrono::seconds(cfg_.ckpt_ttl_s);
  }
  {
    std::lock_guard<std::mutex> lock(gc_mu_);
    if (now - last_gc_ < period) return;
    last_gc_ = now;
  }
  ckpt_gc_removed_.fetch_add(gc_checkpoints(cfg_.ckpt_dir, cfg_.ckpt_ttl_s),
                             std::memory_order_relaxed);
}

Response Server::execute_job(const Request& req, std::uint64_t fingerprint,
                             const common::Budget& budget,
                             const ckpt::Options& checkpoint) {
  // Debug hold: park the runner (cancellation-responsive) so tests can fill
  // the queue behind a deterministically busy worker.
  if (req.debug.hold_ms != 0) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(req.debug.hold_ms);
    while (std::chrono::steady_clock::now() < until &&
           budget.poll() == common::StopReason::kCompleted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  // The worker owns budget polling, throttling and checkpointing; the
  // supervisor owns crash containment and retry.
  return common::governed(
      [&] {
        common::FaultInjector::site("svc.job.run");
        return supervisor_->execute(req, fingerprint, budget, checkpoint);
      },
      stopped_response);
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.accept_faults = accept_faults_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.overloads = overloads_.load(std::memory_order_relaxed);
  s.jobs_executed = jobs_executed_.load(std::memory_order_relaxed);
  s.quarantine_hits = quarantine_hits_.load(std::memory_order_relaxed);
  s.ckpt_gc_removed = ckpt_gc_removed_.load(std::memory_order_relaxed);
  s.tickets_issued = tickets_issued_.load(std::memory_order_relaxed);
  s.journal_replayed = journal_replayed_.load(std::memory_order_relaxed);
  s.journal_dropped = journal_dropped_.load(std::memory_order_relaxed);
  s.jobs_recovered = jobs_recovered_.load(std::memory_order_relaxed);
  s.recovery_done = recovery_done_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    s.tickets_pending = tickets_pending_.size();
    s.ticket_answers = ticket_answers_.size();
    if (journal_ != nullptr) {
      s.journaling = journal_->healthy();
      s.journal_appends = journal_->appends();
      s.journal_failures = journal_->append_failures();
    }
  }
  if (cache_ != nullptr) s.cache = cache_->stats();
  if (queue_ != nullptr) s.queue = queue_->stats();
  if (supervisor_ != nullptr) s.supervisor = supervisor_->stats();
  return s;
}

}  // namespace quanta::svc
