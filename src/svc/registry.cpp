#include "svc/registry.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/pred.h"
#include "exec/executor.h"
#include "cora/priced.h"
#include "game/tiga.h"
#include "mc/reachability.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "smc/estimate.h"
#include "smc/simulator.h"

namespace quanta::svc {

namespace {

/// "train-gate-4" → family "train-gate", size 4. Sizes are bounded so a
/// request cannot ask the daemon to build an astronomically large model.
struct ModelName {
  std::string family;
  int size = 0;
};

std::optional<ModelName> parse_model(const std::string& name) {
  const std::size_t dash = name.rfind('-');
  if (dash == std::string::npos || dash + 1 >= name.size()) return std::nullopt;
  int size = 0;
  for (std::size_t i = dash + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    size = size * 10 + (name[i] - '0');
    if (size > 99) return std::nullopt;
  }
  return ModelName{name.substr(0, dash), size};
}

/// The search pacing a run's debug knobs ask for (none without knobs).
std::chrono::microseconds pace_of(const Request::Debug* debug) {
  return std::chrono::microseconds(debug != nullptr ? debug->throttle_us : 0);
}

JobResult from_search(common::Verdict verdict, const core::SearchStats& stats,
                      std::int64_t extra, const ckpt::ResumeInfo& resume) {
  JobResult out;
  out.verdict = verdict;
  out.stop = stats.stop;
  out.stored = stats.states_stored;
  out.explored = stats.states_explored;
  out.transitions = stats.transitions;
  out.extra = extra;
  out.resume = resume;
  return out;
}

}  // namespace

std::optional<PreparedJob> prepare_job(const Request& r, std::string* error) {
  auto fail = [&](std::string why) -> std::optional<PreparedJob> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  const auto model = parse_model(r.model);
  if (!model) {
    return fail("unknown model '" + r.model +
                "' (expected train-gate-<N> or train-game-<N>)");
  }

  PreparedJob job;
  job.cache_key = "q1|" + r.engine + "|" + r.model + "|" + r.query;

  if (r.engine == "mc" || r.engine == "cora" || r.engine == "smc") {
    if (model->family != "train-gate") {
      return fail("engine '" + r.engine + "' serves train-gate-<N> models");
    }
    if (model->size < 2 || model->size > 8) {
      return fail("train-gate size must be in [2, 8]");
    }
  } else if (r.engine == "game") {
    if (model->family != "train-game") {
      return fail("engine 'game' serves train-game-<N> models");
    }
    if (model->size < 1 || model->size > 3) {
      return fail("train-game size must be in [1, 3]");
    }
  } else {
    return fail("unknown engine '" + r.engine +
                "' (expected mc, smc, game or cora)");
  }

  const int n = model->size;
  if (r.engine == "mc") {
    if (r.query != "mutex" && r.query != "reach-cross") {
      return fail("mc queries: mutex, reach-cross");
    }
    const bool invariant = (r.query == "mutex");
    job.run = [n, invariant](const common::Budget& budget,
                             const ckpt::Options& checkpoint,
                             const Request::Debug* debug) {
      auto tg = models::make_train_gate(n);
      mc::ReachOptions opts;
      opts.record_trace = false;
      opts.limits.budget = budget;
      opts.limits.pace = pace_of(debug);
      opts.checkpoint = checkpoint;
      if (invariant) {
        const auto res =
            mc::check_invariant(tg.system, models::train_gate_mutex(tg), opts);
        return from_search(res.verdict, res.stats, 0, res.resume);
      }
      const int cross =
          tg.system.process(tg.trains[0]).location_index("Cross");
      const auto goal =
          common::loc_index_pred<ta::SymState>(tg.trains[0], cross);
      const auto res = mc::reachable(tg.system, goal, opts);
      return from_search(res.verdict, res.stats, 0, res.resume);
    };
  } else if (r.engine == "smc") {
    if (r.query != "pr-cross") return fail("smc queries: pr-cross");
    char bound[64];
    std::snprintf(bound, sizeof(bound), "%.17g", r.bound);
    job.cache_key += "|runs=" + std::to_string(r.runs) +
                     "|seed=" + std::to_string(r.seed) + "|bound=" + bound;
    const std::uint64_t runs = r.runs;
    const std::uint64_t seed = r.seed;
    const double time_bound = r.bound;
    job.run = [n, runs, seed, time_bound](const common::Budget& budget,
                                          const ckpt::Options& checkpoint,
                                          const Request::Debug*) {
      auto tg = models::make_train_gate(n);
      const int cross =
          tg.system.process(tg.trains[0]).location_index("Cross");
      smc::TimeBoundedReach prop;
      prop.time_bound = time_bound;
      prop.goal =
          common::loc_index_pred<ta::ConcreteState>(tg.trains[0], cross);
      // One worker, inline on this job's thread: each worker process is
      // already one of the daemon's core-sized runners, and a 1-worker
      // executor starts no thread.
      exec::Executor ex(1);
      const auto est = smc::estimate_probability_runs(
          tg.system, prop, runs, /*alpha=*/0.05, seed, ex, nullptr, budget,
          checkpoint);
      JobResult out;
      out.verdict = est.verdict;
      out.stop = est.stop;
      out.explored = est.completed;
      out.transitions = est.runs;
      out.extra = static_cast<std::int64_t>(est.hits);
      out.has_value = true;
      out.value = est.p_hat;
      out.resume = est.resume;
      return out;
    };
  } else if (r.engine == "game") {
    if (r.query != "reach-cross") return fail("game queries: reach-cross");
    job.run = [n](const common::Budget& budget,
                  const ckpt::Options& checkpoint,
                  const Request::Debug* debug) {
      // Reachability objectives need train 0 already approaching — from
      // all-Safe the environment may simply never send a train.
      auto tg = models::make_train_game(
          {.num_trains = n, .first_train_approaching = true});
      const auto goal =
          common::loc_index_pred<ta::DigitalState>(tg.trains[0], tg.l_cross);
      core::SearchLimits limits;
      limits.budget = budget;
      limits.pace = pace_of(debug);
      game::TimedGame g(tg.system, limits, checkpoint);
      const auto res = g.solve_reachability(goal);
      return from_search(res.verdict, res.stats,
                         static_cast<std::int64_t>(res.winning_states),
                         res.resume);
    };
  } else {  // cora
    if (r.query != "mincost-cross") return fail("cora queries: mincost-cross");
    job.run = [n](const common::Budget& budget,
                  const ckpt::Options& checkpoint,
                  const Request::Debug* debug) {
      auto tg = models::make_train_gate(n);
      cora::PriceModel prices(tg.system);
      for (int t : tg.trains) {
        const auto& proc = tg.system.process(t);
        prices.set_location_rate(t, proc.location_index("Appr"), 1);
        prices.set_location_rate(t, proc.location_index("Stop"), 1);
      }
      const int cross =
          tg.system.process(tg.trains[0]).location_index("Cross");
      const auto goal =
          common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);
      cora::MinCostOptions opts;
      opts.limits.budget = budget;
      opts.limits.pace = pace_of(debug);
      opts.checkpoint = checkpoint;
      const auto res = cora::min_cost_reachability(tg.system, prices, goal, opts);
      return from_search(res.verdict, res.stats, res.cost, res.resume);
    };
  }

  job.fingerprint = ckpt::Fingerprint().mix_str(job.cache_key).digest();
  return job;
}

std::string fingerprint_token(std::uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

common::Budget job_budget(const Request& r, const common::CancelToken* cancel) {
  common::Budget budget;
  budget.with_cancel(cancel);
  if (r.deadline_ms != 0) {
    budget.with_deadline_after(std::chrono::milliseconds(r.deadline_ms));
  }
  if (r.memory_mb != 0) budget.with_memory_limit(r.memory_mb << 20);
  return budget;
}

ckpt::Options job_checkpoint(const std::string& ckpt_dir, const Request& r,
                             std::uint64_t fingerprint, bool resume) {
  ckpt::Options checkpoint;
  if (ckpt_dir.empty()) return checkpoint;
  checkpoint.path = ckpt_dir + "/job-" + r.engine + "-" +
                    fingerprint_token(fingerprint) + ".qckpt";
  checkpoint.interval = r.ckpt_interval;
  checkpoint.resume = resume;
  return checkpoint;
}

Response response_from_result(const JobResult& jr, const std::string& token) {
  Response r;
  r.status = Status::kOk;
  r.verdict = jr.verdict;
  r.stop = jr.stop;
  r.stored = jr.stored;
  r.explored = jr.explored;
  r.transitions = jr.transitions;
  r.extra = jr.extra;
  r.has_value = jr.has_value;
  r.value = jr.value;
  // A saved snapshot turns the kUnknown verdict into a resumable job: the
  // client re-submits the same query with this token to continue it.
  if (jr.resume.saved && jr.verdict == common::Verdict::kUnknown) {
    r.resume = token;
  }
  return r;
}

Response stopped_response(common::StopReason reason) {
  Response r;
  r.status = Status::kOk;
  r.verdict = common::Verdict::kUnknown;
  r.stop = reason;
  return r;
}

}  // namespace quanta::svc
