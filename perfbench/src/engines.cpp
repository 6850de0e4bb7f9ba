#include "engines.h"

#include <string>
#include <utility>
#include <vector>

#include "common/pred.h"
#include "core/explore.h"
#include "core/worklist.h"
#include "cora/priced.h"
#include "exec/executor.h"
#include "game/tiga.h"
#include "mc/reachability.h"
#include "models/brp.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "pta/digital_clocks.h"
#include "pta/properties.h"
#include "ta/symbolic.h"
#include "ta/traits.h"

namespace perfbench {

namespace q = quanta;

namespace {

/// The paper's mutual-exclusion property, labeled as the service registry
/// labels it, so direct and service runs check the same predicate.
q::mc::StatePredicate mutual_exclusion(const q::models::TrainGate& tg) {
  std::vector<int> cross_loc;
  for (int i = 0; i < tg.num_trains; ++i) {
    cross_loc.push_back(
        tg.system.process(tg.trains[static_cast<std::size_t>(i)])
            .location_index("Cross"));
  }
  auto trains = tg.trains;
  return q::common::labeled_pred<q::ta::SymState>(
      "train-gate-mutex", [trains, cross_loc](const q::ta::SymState& s) {
        int crossing = 0;
        for (std::size_t i = 0; i < trains.size(); ++i) {
          if (s.locs[static_cast<std::size_t>(trains[i])] == cross_loc[i]) {
            ++crossing;
          }
        }
        return crossing <= 1;
      });
}

SearchOutcome from_stats(q::common::Verdict verdict,
                         const q::core::SearchStats& stats,
                         std::int64_t extra) {
  SearchOutcome o;
  o.verdict = verdict;
  o.stop = stats.stop;
  o.stored = stats.states_stored;
  o.explored = stats.states_explored;
  o.transitions = stats.transitions;
  o.extra = extra;
  return o;
}

}  // namespace

SearchOutcome mc_mutex(int n, SpanSite site) {
  q::models::TrainGate tg = [&] {
    ScopedSpan s(site.log, "models.build", site.parent, site.request);
    return q::models::make_train_gate(n);
  }();
  ScopedSpan s(site.log, "mc.call", site.parent, site.request);
  q::mc::ReachOptions opts;
  opts.record_trace = false;
  const auto res = q::mc::check_invariant(tg.system, mutual_exclusion(tg), opts);
  return from_stats(res.verdict, res.stats, 0);
}

SearchOutcome cora_mincost(int n, SpanSite site) {
  q::models::TrainGate tg = [&] {
    ScopedSpan s(site.log, "models.build", site.parent, site.request);
    return q::models::make_train_gate(n);
  }();
  ScopedSpan s(site.log, "cora.call", site.parent, site.request);
  q::cora::PriceModel prices(tg.system);
  for (int t : tg.trains) {
    const auto& proc = tg.system.process(t);
    prices.set_location_rate(t, proc.location_index("Appr"), 1);
    prices.set_location_rate(t, proc.location_index("Stop"), 1);
  }
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  const auto goal =
      q::common::loc_index_pred<q::ta::DigitalState>(tg.trains[0], cross);
  const auto res = q::cora::min_cost_reachability(tg.system, prices, goal,
                                                  q::cora::MinCostOptions{});
  return from_stats(res.verdict, res.stats, res.cost);
}

SearchOutcome game_reach(int n, SpanSite site) {
  q::models::TrainGame tg = [&] {
    ScopedSpan s(site.log, "models.build", site.parent, site.request);
    return q::models::make_train_game(
        {.num_trains = n, .first_train_approaching = true});
  }();
  ScopedSpan s(site.log, "game.call", site.parent, site.request);
  const auto goal =
      q::common::loc_index_pred<q::ta::DigitalState>(tg.trains[0], tg.l_cross);
  q::game::TimedGame g(tg.system);
  const auto res = g.solve_reachability(goal);
  return from_stats(res.verdict, res.stats,
                    static_cast<std::int64_t>(res.winning_states));
}

q::smc::Estimate smc_cross(int n, std::uint64_t runs, std::uint64_t seed,
                           q::exec::RunTelemetry* telemetry, SpanSite site) {
  q::models::TrainGate tg = [&] {
    ScopedSpan s(site.log, "models.build", site.parent, site.request);
    return q::models::make_train_gate(n);
  }();
  ScopedSpan s(site.log, "smc.call", site.parent, site.request);
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  q::smc::TimeBoundedReach prop;
  prop.time_bound = 100.0;
  prop.goal = q::common::loc_index_pred<q::ta::ConcreteState>(tg.trains[0], cross);
  return q::smc::estimate_probability_runs(tg.system, prop, runs,
                                           /*alpha=*/0.05, seed,
                                           q::exec::global_executor(),
                                           telemetry);
}

BrpValues brp_mcpta(SpanSite site) {
  BrpValues v;
  q::models::BrpParams gp;
  gp.global_clock = true;
  auto [brp, brpg] = [&] {
    ScopedSpan s(site.log, "models.build", site.parent, site.request);
    return std::make_pair(q::models::make_brp(), q::models::make_brp(gp));
  }();
  auto [dm, dmg] = [&] {
    ScopedSpan s(site.log, "pta.build", site.parent, site.request);
    return std::make_pair(q::pta::build_digital_mdp(brp.system),
                          q::pta::build_digital_mdp(brpg.system));
  }();
  ScopedSpan s(site.log, "mdp.solve", site.parent, site.request);
  const auto p1 = q::pta::pmax_reach(dm, [&brp](const q::ta::DigitalState& st) {
    return brp.no_success(st.locs);
  });
  const int gt = brpg.clk_gt;
  const auto dmax =
      q::pta::pmax_reach(dmg, [&brpg, gt](const q::ta::DigitalState& st) {
        return brpg.is_success(st.locs) &&
               st.clocks[static_cast<std::size_t>(gt)] <= 64;
      });
  const auto emax = q::pta::emax_time(dm, [&brp](const q::ta::DigitalState& st) {
    return brp.is_done(st.locs);
  });
  v.mdp_states = dm.mdp.num_states();
  v.p1 = p1.value;
  v.p1_analytic = brp.analytic_p1();
  v.dmax = dmax.value;
  v.emax = emax.value;
  v.converged = p1.converged && dmax.converged && emax.converged;
  return v;
}

q::svc::Response response_of(const SearchOutcome& o) {
  q::svc::Response r;
  r.status = q::svc::Status::kOk;
  r.verdict = o.verdict;
  r.stop = o.stop;
  r.stored = o.stored;
  r.explored = o.explored;
  r.transitions = o.transitions;
  r.extra = o.extra;
  return r;
}

q::svc::Response response_of(const q::smc::Estimate& e) {
  q::svc::Response r;
  r.status = q::svc::Status::kOk;
  r.verdict = e.verdict;
  r.stop = e.stop;
  r.explored = e.completed;
  r.transitions = e.runs;
  r.extra = static_cast<std::int64_t>(e.hits);
  r.has_value = true;
  r.value = e.p_hat;
  return r;
}

ReplayOutcome replay_mc_mutex(int n, SpanLog* log) {
  using Store = q::core::StateStore<q::ta::SymState>;
  ReplayOutcome out;
  const auto tg = q::models::make_train_gate(n);
  const auto bad = q::common::pred_not(mutual_exclusion(tg));
  const q::ta::SymbolicSemantics sem(tg.system,
                                     q::ta::SymbolicSemantics::Options{true});
  // The options mc::reachable gives its store: inclusion subsumption with
  // tombstoning of strictly covered states.
  Store store(Store::Options{/*inclusion=*/true, /*tombstone_covered=*/true});
  q::core::Worklist work(q::core::SearchOrder::kBfs);
  const std::int32_t root = log->begin("core.explore", -1, 0);
  auto add = [&](q::ta::SymState s) {
    const std::int32_t span = log->begin("core.intern", root, 0);
    const auto interned = store.intern(std::move(s));
    log->end(span);
    ++out.intern_calls;
    if (interned.inserted) {
      ++out.interns_inserted;
      work.push(interned.id);
    }
  };
  add(sem.initial());
  const q::core::SearchStats stats = q::core::explore(
      store, work, q::core::SearchLimits{},
      [&](const q::core::Worklist::Entry& e) {
        return bad(store.state(e.id)) ? q::core::Visit::kStop
                                      : q::core::Visit::kContinue;
      },
      [&](const q::core::Worklist::Entry& e) -> std::size_t {
        const q::ta::SymState state = store.state(e.id);
        const std::int32_t span = log->begin("ta.successors", root, 0);
        std::vector<q::ta::SymTransition> succ = sem.successors(state);
        log->end(span);
        ++out.succ_calls;
        for (auto& tr : succ) add(std::move(tr.state));
        return succ.size();
      });
  log->end(root);
  out.stored = stats.states_stored;
  out.explored = stats.states_explored;
  out.transitions = stats.transitions;
  out.store = store.metrics();
  for (double s : log->self_seconds("ta.successors")) out.succ_s += s;
  for (double s : log->self_seconds("core.intern")) out.intern_s += s;
  return out;
}

void report_replay(const ReplayOutcome& rep, const SearchOutcome& engine,
                   Result* r) {
  if (rep.stored != engine.stored || rep.explored != engine.explored ||
      rep.transitions != engine.transitions) {
    r->mismatch("exploration replay counts " + std::to_string(rep.stored) +
                "/" + std::to_string(rep.explored) + "/" +
                std::to_string(rep.transitions) + " differ from the engine's " +
                std::to_string(engine.stored) + "/" +
                std::to_string(engine.explored) + "/" +
                std::to_string(engine.transitions));
    r->withhold_replay = true;
    return;
  }
  const auto& pool = rep.store.pool;
  r->metric("ta.succ_s", rep.succ_s, "s");
  r->metric("ta.succ_calls", static_cast<double>(rep.succ_calls), "count");
  r->metric("core.intern_s", rep.intern_s, "s");
  r->metric("core.intern_calls", static_cast<double>(rep.intern_calls), "count");
  r->metric("core.dedup_ratio",
            static_cast<double>(rep.intern_calls - rep.interns_inserted) /
                static_cast<double>(rep.intern_calls),
            "1");
  r->metric("core.covered", static_cast<double>(rep.store.covered), "count");
  r->metric("core.max_chain", static_cast<double>(rep.store.max_chain), "count");
  r->metric("store.pool_hit_rate", pool.hit_rate(), "1");
  r->metric("store.payload_ratio",
            pool.logical_words == 0
                ? 0.0
                : static_cast<double>(pool.payload_words) /
                      static_cast<double>(pool.logical_words),
            "1");
  r->metric("store.resident_mib",
            static_cast<double>(pool.resident_bytes) / (1024.0 * 1024.0), "MiB");
  r->notes.push_back(
      "replay reproduced the engine: stored " + std::to_string(rep.stored) +
      ", explored " + std::to_string(rep.explored) + ", transitions " +
      std::to_string(rep.transitions) + "; interns " +
      std::to_string(rep.intern_calls) + " (" +
      std::to_string(rep.interns_inserted) + " inserted), pool lookups " +
      std::to_string(pool.lookups));
}

}  // namespace perfbench
