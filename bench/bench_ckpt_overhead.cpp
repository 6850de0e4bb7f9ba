// Overhead of crash-safe checkpointing (src/ckpt) on the symbolic hot path:
// train-gate full exploration with (a) no checkpointing, (b) checkpointing
// enabled at budget-trip granularity (snapshot only when a bound stops the
// run — the CheckpointHook is armed but never fires on a completed search),
// and (c) periodic snapshots every K explored states. The periodic sweep
// compares the two snapshot modes at each interval: full (max_deltas = 0,
// every save serializes the whole store + worklist and rewrites the file
// atomically) against incremental (delta records appended to the chain's
// log, each holding only the sections that changed since the previous link).
// Acceptance (EXPERIMENTS.md): (b) stays within 5% of (a); incremental
// snapshots at the 2000-state interval stay within 1.5x of baseline, well
// under the cost of full snapshots at the same interval.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "ckpt/delta.h"
#include "common/budget.h"
#include "mc/reachability.h"
#include "models/train_gate.h"

using namespace quanta;

namespace {

mc::StatePredicate all_crossing(const models::TrainGate& tg) {
  std::vector<int> cross;
  for (int t : tg.trains) {
    cross.push_back(tg.system.process(t).location_index("Cross"));
  }
  auto trains = tg.trains;
  return [trains, cross](const ta::SymState& s) {
    for (std::size_t i = 0; i < trains.size(); ++i) {
      if (s.locs[static_cast<std::size_t>(trains[i])] != cross[i]) return false;
    }
    return true;  // unreachable for N >= 2: forces a full exploration
  };
}

double run_once(const models::TrainGate& tg, const mc::StatePredicate& pred,
                const std::string& ckpt_path, std::uint64_t interval,
                std::uint32_t max_deltas, std::size_t* states) {
  mc::ReachOptions opts;
  opts.record_trace = false;
  opts.limits.budget = common::Budget::deadline_after(std::chrono::hours(1));
  opts.checkpoint.path = ckpt_path;
  opts.checkpoint.resume = false;  // measure the forward path, not a resume
  opts.checkpoint.interval = interval;
  opts.checkpoint.max_deltas = max_deltas;
  bench::Stopwatch sw;
  auto r = mc::reachable(tg.system, pred, opts);
  *states = r.stats.states_stored;
  if (r.verdict != common::Verdict::kViolated) {
    std::fprintf(stderr, "unexpected verdict under a generous budget\n");
  }
  return sw.seconds();
}

double best_of(int reps, const models::TrainGate& tg,
               const mc::StatePredicate& pred, const std::string& ckpt_path,
               std::uint64_t interval, std::uint32_t max_deltas,
               std::size_t* states) {
  double best = 1e9;
  for (int i = 0; i < reps; ++i) {
    double t = run_once(tg, pred, ckpt_path, interval, max_deltas, states);
    if (t < best) best = t;
  }
  return best;
}

}  // namespace

int main() {
  bench::section("checkpoint overhead: governed train-gate search");

  const std::string path = "/tmp/quanta_bench_ckpt_overhead.qckpt";
  bench::Table table({"N", "checkpointing", "states", "time [s]", "overhead"});
  constexpr int kReps = 5;
  for (int n = 4; n <= 5; ++n) {
    auto tg = models::make_train_gate(n);
    auto pred = all_crossing(tg);

    std::size_t states = 0;
    // Baseline: governed but no checkpoint path (hook never installed).
    const double base = best_of(kReps, tg, pred, "", 0, 0, &states);
    table.row({std::to_string(n), "off", std::to_string(states),
               bench::fmt(base, "%.3f"), "1.00x (baseline)"});

    // Budget-trip granularity: the hook is armed, but a completed search
    // never snapshots — this is the always-on configuration.
    const double armed = best_of(kReps, tg, pred, path, 0, 0, &states);
    table.row({std::to_string(n), "on stop only", std::to_string(states),
               bench::fmt(armed, "%.3f"),
               bench::fmt(armed / base, "%.2f") + "x"});
    ckpt::remove_chain(path);

    // Periodic sweep: at each interval, full snapshots (max_deltas = 0,
    // every save serializes and rewrites the whole store + worklist)
    // against delta chains (max_deltas = 64, every save appends
    // only the changes since the previous link).
    for (std::uint64_t interval : {500u, 2000u, 8000u}) {
      const double full =
          best_of(kReps, tg, pred, path, interval, 0, &states);
      ckpt::remove_chain(path);
      table.row({std::to_string(n), "full @" + std::to_string(interval),
                 std::to_string(states), bench::fmt(full, "%.3f"),
                 bench::fmt(full / base, "%.2f") + "x"});
      const double delta =
          best_of(kReps, tg, pred, path, interval, 64, &states);
      ckpt::remove_chain(path);
      table.row({std::to_string(n), "delta @" + std::to_string(interval),
                 std::to_string(states), bench::fmt(delta, "%.3f"),
                 bench::fmt(delta / base, "%.2f") + "x"});
    }
  }
  table.print();
  ckpt::remove_chain(path);
  std::printf(
      "\n  acceptance: 'on stop only' within 5%% of baseline (the hook adds\n"
      "  one branch per pop; snapshots are written only when a bound trips).\n"
      "  periodic full snapshots are quadratic in states/interval; delta\n"
      "  chains must hold the 2000-state interval within 1.5x of\n"
      "  baseline on the 67k-state instance (N = 5).\n");
  return 0;
}
