// ES — storage-substrate experiment: bytes/state and pool sharing of the
// interned zone store (src/store) on the train-gate family.
//
// Two modes:
//   bench_store_memory [--max-n N]
//       Resident sweep N=4..max-n (default 6): per-N table of states,
//       bytes/state pooled vs. the unpooled baseline representation
//       (per-state heap vectors, the layout the store used before payload
//       interning), pool hit rate and distinct-payload share.
//   bench_store_memory --n N --mem-mib M
//       Governed single run for CI: verify train-gate mutual exclusion for
//       one N under a hard common::Budget memory ceiling of M MiB. Exits
//       nonzero unless the verdict is definite (kUnknown-free) and correct.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.h"
#include "common/env.h"
#include "mc/reachability.h"
#include "models/train_gate.h"
#include "ta/traits.h"

using namespace quanta;

namespace {

/// Bytes/state of the pre-interning representation: every state owns its
/// location/variable vectors and zone matrix on the heap (logical_words
/// counts that payload as if nothing were shared), plus that layout's
/// per-state store bookkeeping (key hash, chain link, covered flag, chain
/// length). A fixed baseline: the live store's bookkeeping is in `pooled`.
double unpooled_bytes_per_state(const core::StoreMetrics& m) {
  if (m.stored == 0) return 0.0;
  const std::size_t payload = m.pool.logical_words * sizeof(std::int32_t);
  const std::size_t per_state = sizeof(ta::SymState) + sizeof(std::size_t) +
                                sizeof(std::int32_t) + sizeof(std::uint8_t) +
                                sizeof(std::uint32_t);
  return static_cast<double>(payload + m.stored * per_state) /
         static_cast<double>(m.stored);
}

int run_sweep(int max_n) {
  bench::section("ES: interned zone storage on the train-gate (N=4.." +
                 std::to_string(max_n) + ")");
  bench::Table table({"N", "states", "B/state pooled", "B/state unpooled",
                      "reduction", "hit rate", "distinct", "time [s]"});
  for (int n = 4; n <= max_n; ++n) {
    auto tg = models::make_train_gate(n);
    bench::Stopwatch sw;
    const auto r = mc::check_invariant(tg.system, models::train_gate_mutex(tg));
    const double secs = sw.seconds();
    if (!r.holds()) {
      std::printf("  N=%d: UNEXPECTED verdict (not holds)\n", n);
      return 1;
    }
    const core::StoreMetrics& m = r.stats.store;
    const double pooled =
        static_cast<double>(m.memory_bytes) / static_cast<double>(m.stored);
    const double unpooled = unpooled_bytes_per_state(m);
    table.row({std::to_string(n), std::to_string(m.stored),
               bench::fmt(pooled, "%.1f"), bench::fmt(unpooled, "%.1f"),
               bench::fmt(unpooled / pooled, "%.2fx"),
               bench::fmt(100.0 * m.pool.hit_rate(), "%.1f%%"),
               std::to_string(m.pool.records), bench::fmt(secs, "%.2f")});
  }
  table.print();
  std::printf(
      "\n  unpooled = per-state heap vectors + zone matrix (the layout before"
      "\n  payload interning); pooled = StateStore::memory_bytes() including"
      "\n  pool bookkeeping.\n");
  return 0;
}

int run_governed(int n, std::uint64_t mem_mib) {
  bench::section("ES-governed: train-gate N=" + std::to_string(n) +
                 " under a " + std::to_string(mem_mib) + " MiB budget");
  auto tg = models::make_train_gate(n);
  mc::ReachOptions opts;
  opts.limits.budget = common::Budget{}.with_memory_limit(
      static_cast<std::size_t>(mem_mib) << 20);
  bench::Stopwatch sw;
  const auto r =
      mc::check_invariant(tg.system, models::train_gate_mutex(tg), opts);
  const double secs = sw.seconds();
  const core::StoreMetrics& m = r.stats.store;
  std::printf("  verdict: %s  states: %zu  time: %.1fs\n",
              r.verdict == common::Verdict::kHolds      ? "holds"
              : r.verdict == common::Verdict::kViolated ? "VIOLATED"
                                                        : "UNKNOWN",
              m.stored, secs);
  std::printf("  %zu covered, %zu explored, table %zu/%zu slots (max chain "
              "%zu), pool %zu payloads (%.0f%% shared, %.1f MiB resident)\n",
              m.covered, r.stats.states_explored, m.occupied, m.slots,
              m.max_chain, m.pool.records, 100.0 * m.pool.hit_rate(),
              static_cast<double>(m.pool.resident_bytes) / (1024.0 * 1024.0));
  if (r.verdict == common::Verdict::kUnknown) {
    std::printf("  FAIL: governed run did not reach a definite verdict\n");
    return 1;
  }
  if (!r.holds()) {
    std::printf("  FAIL: mutual exclusion must hold on the train-gate\n");
    return 1;
  }
  std::printf("  PASS: definite verdict under the memory budget\n");
  return 0;
}

/// A whole positive decimal that fits an int (common::parse_u64 rules).
std::optional<int> parse_count(const char* s) {
  const auto v = common::parse_u64(s);
  if (!v || *v == 0 || *v > INT_MAX) return std::nullopt;
  return static_cast<int>(*v);
}

}  // namespace

int main(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--max-n N] | --n N --mem-mib M\n",
                 argv[0]);
    return 2;
  };
  int max_n = 6;
  int governed_n = 0;
  std::uint64_t mem_mib = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* value = i + 1 < argc ? argv[++i] : "";
    if (a == "--max-n" || a == "--n") {
      const auto v = parse_count(value);
      if (!v) return usage();
      (a == "--n" ? governed_n : max_n) = *v;
    } else if (a == "--mem-mib") {
      const auto v = common::parse_u64(value);
      if (!v || *v == 0 || *v > (SIZE_MAX >> 20)) return usage();
      mem_mib = *v;
    } else {
      return usage();
    }
  }
  if (governed_n > 0) {
    if (mem_mib == 0) {
      std::fprintf(stderr, "--n requires --mem-mib\n");
      return 2;
    }
    return run_governed(governed_n, mem_mib);
  }
  return run_sweep(max_n);
}
