// Allocation regression guards for the hot engine loops: the SMC step loop,
// symbolic successor generation, and the digital successor layer behind the
// priced (CORA) and timed-game (TIGA) engines. This binary replaces the global
// operator new with a counting one, so it is its own test executable and
// touches no other suite. Sanitizers interpose their own allocator; the
// counts are meaningless there and the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cora/priced.h"
#include "exec/executor.h"
#include "exec/telemetry.h"
#include "game/tiga.h"
#include "mc/reachability.h"
#include "models/train_game.h"
#include "models/train_gate.h"
#include "smc/estimate.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QUANTA_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QUANTA_ALLOC_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace quanta;

#ifdef QUANTA_ALLOC_SANITIZED
#define SKIP_IF_SANITIZED() GTEST_SKIP() << "sanitizer allocator in use"
#else
#define SKIP_IF_SANITIZED() (void)0
#endif

TEST(AllocGuard, SmcStepLoopStaysOffTheHeap) {
  SKIP_IF_SANITIZED();
  auto tg = models::make_train_gate(4);
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  smc::TimeBoundedReach prop;
  prop.time_bound = 100.0;
  prop.goal = common::loc_index_pred<ta::ConcreteState>(tg.trains[0], cross);
  exec::Executor inline_executor(1);
  exec::RunTelemetry telemetry;

  const std::uint64_t before = g_allocations.load();
  const auto est = smc::estimate_probability_runs(
      tg.system, prop, 2000, /*alpha=*/0.05, /*seed=*/1, inline_executor,
      &telemetry);
  const std::uint64_t allocations = g_allocations.load() - before;

  ASSERT_EQ(est.completed, 2000u);
  const std::uint64_t steps = telemetry.sim_steps();
  ASSERT_GT(steps, 0u);
  const double per_step =
      static_cast<double>(allocations) / static_cast<double>(steps);
  EXPECT_LE(per_step, 0.1) << allocations << " allocations over " << steps
                           << " simulation steps";
}

TEST(AllocGuard, ZoneExpansionAllocationsPerTransition) {
  SKIP_IF_SANITIZED();
  auto tg = models::make_train_gate(4);
  mc::ReachOptions opts;
  opts.record_trace = false;

  const std::uint64_t before = g_allocations.load();
  const auto res =
      mc::check_invariant(tg.system, models::train_gate_mutex(tg), opts);
  const std::uint64_t allocations = g_allocations.load() - before;

  // The std::vector-per-move enumerator this guard replaced made 70731
  // allocations over this run's 6136 transitions (11.5 per transition).
  constexpr double kReplacedPerTransition = 70731.0 / 6136.0;
  ASSERT_EQ(res.stats.transitions, 6136u);
  const double per_transition = static_cast<double>(allocations) /
                                static_cast<double>(res.stats.transitions);
  EXPECT_LE(per_transition, kReplacedPerTransition / 2)
      << allocations << " allocations over " << res.stats.transitions
      << " transitions";
}

TEST(AllocGuard, PricedExpansionAllocationsPerTransition) {
  SKIP_IF_SANITIZED();
  // E8: the minimum cost for train 0 to cross when approaching or stopping
  // costs 1 per time unit.
  auto tg = models::make_train_gate(4);
  cora::PriceModel prices(tg.system);
  for (int t : tg.trains) {
    const auto& proc = tg.system.process(t);
    prices.set_location_rate(t, proc.location_index("Appr"), 1);
    prices.set_location_rate(t, proc.location_index("Stop"), 1);
  }
  const int cross = tg.system.process(tg.trains[0]).location_index("Cross");
  const auto goal =
      common::loc_index_pred<ta::DigitalState>(tg.trains[0], cross);

  const std::uint64_t before = g_allocations.load();
  const auto res = cora::min_cost_reachability(tg.system, prices, goal);
  const std::uint64_t allocations = g_allocations.load() - before;

  // A delay step that built two fresh states, and a fresh state per visit,
  // made 375203 allocations over this run's 96186 transitions (3.90 per
  // transition). With scratch states only amortized growth is left.
  ASSERT_EQ(res.stats.transitions, 96186u);
  const double per_transition = static_cast<double>(allocations) /
                                static_cast<double>(res.stats.transitions);
  EXPECT_LE(per_transition, 0.1)
      << allocations << " allocations over " << res.stats.transitions
      << " transitions";
}

TEST(AllocGuard, GameExpansionAllocationsPerTransition) {
  SKIP_IF_SANITIZED();
  // E2: can the controller get train 0 across the bridge?
  auto tg = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  const auto goal =
      common::loc_index_pred<ta::DigitalState>(tg.trains[0], tg.l_cross);

  const std::uint64_t before = g_allocations.load();
  game::TimedGame g(tg.system);
  const auto res = g.solve_reachability(goal);
  const std::uint64_t allocations = g_allocations.load() - before;

  // The same delay step made 189343 allocations over this run's 39666
  // transitions (4.77 per transition). What is left is the game graph's
  // own successor lists and the strategy the result carries.
  constexpr double kReplacedPerTransition = 189343.0 / 39666.0;
  ASSERT_EQ(res.stats.transitions, 39666u);
  const double per_transition = static_cast<double>(allocations) /
                                static_cast<double>(res.stats.transitions);
  EXPECT_LE(per_transition, kReplacedPerTransition / 2)
      << allocations << " allocations over " << res.stats.transitions
      << " transitions";
}

}  // namespace
