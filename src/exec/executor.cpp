#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/env.h"
#include "common/error.h"
#include "common/fault.h"

namespace quanta::exec {

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kMaxWorkers = 1024;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned checked_workers(unsigned workers) {
  if (workers == 0 || workers > kMaxWorkers) {
    throw std::invalid_argument(quanta::context(
        "exec.Executor", "workers must be in [1, ", kMaxWorkers, "], got ",
        workers));
  }
  return workers;
}

}  // namespace

unsigned default_worker_count() {
  // The whole value must be a positive decimal number (common::env_u64):
  // trailing garbage ("4x"), empty strings, zero/negative counts and
  // out-of-range values all fall back to hardware_concurrency rather than
  // half-parsing.
  if (const auto v = common::env_u64("QUANTA_JOBS", kMaxWorkers)) {
    return static_cast<unsigned>(*v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Executor::Executor(unsigned workers) : workers_(checked_workers(workers)) {
  threads_.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Executor::worker_loop(unsigned id) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    drain(id);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

bool Executor::claim(std::uint64_t* b, std::uint64_t* e) {
  std::uint64_t cur = cursor_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= end_) return false;
    const std::uint64_t remaining = end_ - cur;
    const std::uint64_t n = std::max<std::uint64_t>(
        1, remaining / (std::uint64_t{4} * workers_));
    if (cursor_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed)) {
      *b = cur;
      *e = cur + n;
      return true;
    }
  }
}

void Executor::run_chunk(std::uint64_t b, std::uint64_t e, unsigned id) {
  WorkerTelemetry& t = slots_[id].t;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  WorkerContext ctx{id, &t, cancel_};
  for (std::uint64_t i = b; i < e; ++i) {
    if (cancel_ && cancel_->cancelled()) break;
    ++t.runs_started;
    (*body_)(i, ctx);
    ++t.runs_completed;
  }
  t.cpu_seconds += thread_cpu_seconds() - cpu0;
  t.busy_seconds += seconds_since(t0);
}

void Executor::drain(unsigned id) {
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) return;
    if (cancel_ && cancel_->cancelled()) return;
    std::uint64_t b, e;
    if (!claim(&b, &e)) return;
    try {
      common::FaultInjector::site("exec.thread_pool.chunk");
      run_chunk(b, e, id);
    } catch (...) {
      abort_.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      return;
    }
  }
}

std::uint64_t Executor::for_each(std::uint64_t begin, std::uint64_t end,
                                 const RunFn& body, CancellationToken* cancel,
                                 RunTelemetry* telemetry) {
  if (begin >= end) return 0;
  std::lock_guard<std::mutex> job_lock(job_mu_);
  std::vector<Slot> slots(workers_);
  const Clock::time_point wall0 = Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    slots_ = slots.data();
    end_ = end;
    cancel_ = cancel;
    cursor_.store(begin, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = workers_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  drain(0);  // the caller is worker 0
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return active_ == 0; });
    if (error_) {
      std::exception_ptr err = error_;
      error_ = nullptr;
      std::rethrow_exception(err);
    }
  }

  std::uint64_t completed = 0;
  for (const Slot& s : slots) completed += s.t.runs_completed;
  if (telemetry) {
    std::vector<WorkerTelemetry> out;
    out.reserve(slots.size());
    for (const Slot& s : slots) out.push_back(s.t);
    telemetry->accumulate(out, seconds_since(wall0));
  }
  return completed;
}

Executor& global_executor() {
  static Executor ex(default_worker_count());
  return ex;
}

}  // namespace quanta::exec
