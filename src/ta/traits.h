// core::StateTraits specializations for the timed-automata state types,
// plugging both semantics into the shared exploration core:
//   * ta::SymState  — zone states; partitioned by the discrete part with
//     DBM set-inclusion subsumption, so UPPAAL-style covered-state
//     tombstoning is available to every zone-based engine;
//   * ta::DigitalState — integer-time states; exact interning.
//
// Both opt into pooled storage (core::PooledTraits): states in a StateStore
// are kept as tuples of store::Ref handles into a ZonePool, so the same
// location vector, valuation, clock vector or DBM row is stored once no
// matter how many states share it (zones are interned row-wise — whole
// matrices rarely repeat, their rows do). Comparisons against stored states
// go through pool spans and decide exactly like the unpooled overloads,
// keeping exploration order bit-identical.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "core/traits.h"
#include "store/pack.h"
#include "ta/digital.h"
#include "ta/symbolic.h"

namespace quanta::core {

template <>
struct StateTraits<ta::SymState> {
  static constexpr bool kSupportsInclusion = true;

  static std::size_t hash(const ta::SymState& s) {
    std::size_t seed = s.discrete_hash();
    common::hash_combine(seed, s.zone.hash());
    return seed;
  }
  static bool equal(const ta::SymState& a, const ta::SymState& b) {
    return a.same_discrete(b) && a.zone == b.zone;
  }

  static std::size_t partition_hash(const ta::SymState& s) {
    return s.discrete_hash();
  }
  static bool same_partition(const ta::SymState& a, const ta::SymState& b) {
    return a.same_discrete(b);
  }
  static Subsumes compare(const ta::SymState& stored,
                          const ta::SymState& incoming) {
    return relation_to_subsumes(incoming.zone.relation(stored.zone));
  }

  /// Zone row 0 and column 0 without the diagonal (every clock's lower and
  /// upper bound), for the first kSummaryClocks clocks, each raw bound
  /// clamped to int8. Clamping is monotone and inclusion compares raw
  /// bounds entrywise, so if the zone of `a` is inside that of `b`, every
  /// summary byte of `a` is <= the one of `b`. An empty zone is inside
  /// every zone and contains none but empty ones, so it gets the minimum
  /// everywhere: it is then never incomparable with anything.
  static InclusionSummary summary(const ta::SymState& s) {
    InclusionSummary out{};
    const dbm::raw_t* raw = s.zone.raw_data();
    if (raw[0] < dbm::kLeZero) {
      out.fill(std::numeric_limits<std::int8_t>::min());
      return out;
    }
    const auto dim = static_cast<std::size_t>(s.zone.dim());
    const std::size_t clocks = std::min(dim - 1, kSummaryClocks);
    for (std::size_t c = 1; c <= clocks; ++c) {
      out[2 * c - 2] = clamp8(raw[c]);
      out[2 * c - 1] = clamp8(raw[c * dim]);
    }
    return out;
  }

  /// Heap bytes behind one zone state (discrete vectors + DBM matrix) — the
  /// per-state contribution to StateStore byte accounting (common::Budget).
  static std::size_t memory_bytes(const ta::SymState& s) {
    const std::size_t dim = static_cast<std::size_t>(s.zone.dim());
    return s.locs.capacity() * sizeof(int) +
           s.vars.capacity() * sizeof(decltype(s.vars)::value_type) +
           dim * dim * sizeof(dbm::raw_t);
  }

  // --- pooled storage ---
  //
  // The zone matrix is interned ROW by row, not as one record: whole zones
  // across a zone graph are almost all distinct, but their rows repeat
  // heavily (a discrete step or an extrapolation typically rewrites the
  // bounds of one or two clocks and leaves the other rows untouched), so
  // row granularity is where the structural sharing actually is. A state
  // keeps its dim row refs inline while dim <= kInlineRows; larger systems
  // fall back to one pooled vector of row refs in rows[0].

  static constexpr int kInlineRows = 8;

  struct Pooled {
    store::Ref locs;
    store::Ref vars;
    std::int32_t dim;
    std::array<store::Ref, kInlineRows> rows;
  };

  static Pooled pool(store::ZonePool& p, const ta::SymState& s) {
    Pooled out;
    out.locs = store::intern_vec(p, s.locs);
    out.vars = store::intern_vec(p, s.vars);
    out.dim = s.zone.dim();
    out.rows.fill(store::kNullRef);
    const auto dim = static_cast<std::size_t>(out.dim);
    const dbm::raw_t* raw = s.zone.raw_data();
    if (out.dim <= kInlineRows) {
      for (std::size_t r = 0; r < dim; ++r) {
        out.rows[r] = p.intern({raw + r * dim, dim});
      }
    } else {
      std::vector<store::Ref> refs(dim);
      for (std::size_t r = 0; r < dim; ++r) {
        refs[r] = p.intern({raw + r * dim, dim});
      }
      out.rows[0] = store::intern_vec(p, refs);
    }
    return out;
  }
  static void unpool(const store::ZonePool& p, const Pooled& st,
                     ta::SymState& s) {
    if (s.zone.dim() != st.dim) s.zone = dbm::Dbm(st.dim);
    for (int r = 0; r < st.dim; ++r) {
      const store::Ref row = row_ref(p, st, static_cast<std::size_t>(r));
      s.zone.set_row(r, p.data(row).data());
    }
    store::unpack_vec(p, st.locs, s.locs);
    store::unpack_vec(p, st.vars, s.vars);
  }
  static bool equal(const store::ZonePool& p, const Pooled& st,
                    const ta::SymState& s) {
    if (!same_partition(p, st, s) || st.dim != s.zone.dim()) return false;
    const auto dim = static_cast<std::size_t>(st.dim);
    const dbm::raw_t* raw = s.zone.raw_data();
    for (std::size_t r = 0; r < dim; ++r) {
      if (std::memcmp(p.data(row_ref(p, st, r)).data(), raw + r * dim,
                      dim * sizeof(dbm::raw_t)) != 0) {
        return false;
      }
    }
    return true;
  }
  static bool same_partition(const store::ZonePool& p, const Pooled& st,
                             const ta::SymState& s) {
    return store::vec_equals(p, st.locs, s.locs) &&
           store::vec_equals(p, st.vars, s.vars);
  }
  static Subsumes compare(const store::ZonePool& p, const Pooled& st,
                          const ta::SymState& incoming) {
    return relation_to_subsumes(rows_relation(p, st, incoming.zone));
  }

  /// The ref of zone row r, wherever it lives (inline or the rows[0] blob).
  static store::Ref row_ref(const store::ZonePool& p, const Pooled& st,
                            std::size_t r) {
    if (st.dim <= kInlineRows) return st.rows[r];
    return static_cast<store::Ref>(
        static_cast<std::uint32_t>(p.data(st.rows[0])[r]));
  }

 private:
  /// incoming.relation(stored zone), computed against the interned rows
  /// without materializing the matrix. Same empty-zone checks, le/ge
  /// accumulation and early exit as dbm relation — decisions are
  /// bit-identical to the unpooled comparison.
  static dbm::Relation rows_relation(const store::ZonePool& p,
                                     const Pooled& st,
                                     const dbm::Dbm& incoming) {
    assert(incoming.dim() == st.dim);
    const auto dim = static_cast<std::size_t>(st.dim);
    const dbm::raw_t* a = incoming.raw_data();
    const bool a_empty = a[0] < dbm::kLeZero;
    const bool b_empty = p.data(row_ref(p, st, 0))[0] < dbm::kLeZero;
    if (a_empty && b_empty) return dbm::Relation::kEqual;
    if (a_empty) return dbm::Relation::kSubset;
    if (b_empty) return dbm::Relation::kSuperset;
    bool le = true, ge = true;
    for (std::size_t r = 0; r < dim; ++r) {
      const std::int32_t* b = p.data(row_ref(p, st, r)).data();
      const dbm::raw_t* ar = a + r * dim;
      for (std::size_t j = 0; j < dim; ++j) {
        if (ar[j] > b[j]) le = false;
        if (ar[j] < b[j]) ge = false;
        if (!le && !ge) return dbm::Relation::kDifferent;
      }
    }
    if (le && ge) return dbm::Relation::kEqual;
    return le ? dbm::Relation::kSubset : dbm::Relation::kSuperset;
  }

  static constexpr std::size_t kSummaryClocks =
      std::tuple_size_v<InclusionSummary> / 2;

  static std::int8_t clamp8(dbm::raw_t v) {
    return static_cast<std::int8_t>(
        std::clamp<dbm::raw_t>(v, std::numeric_limits<std::int8_t>::min(),
                               std::numeric_limits<std::int8_t>::max()));
  }
  static Subsumes relation_to_subsumes(dbm::Relation r) {
    switch (r) {
      case dbm::Relation::kEqual:
      case dbm::Relation::kSubset:
        return Subsumes::kStored;
      case dbm::Relation::kSuperset:
        return Subsumes::kIncoming;
      case dbm::Relation::kDifferent:
        break;
    }
    return Subsumes::kNone;
  }
};

template <>
struct StateTraits<ta::DigitalState> {
  static constexpr bool kSupportsInclusion = false;

  static std::size_t hash(const ta::DigitalState& s) { return s.hash(); }
  static bool equal(const ta::DigitalState& a, const ta::DigitalState& b) {
    return a == b;
  }

  static std::size_t memory_bytes(const ta::DigitalState& s) {
    return s.locs.capacity() * sizeof(int) +
           s.vars.capacity() * sizeof(decltype(s.vars)::value_type) +
           s.clocks.capacity() * sizeof(std::int32_t);
  }

  // --- pooled storage ---

  struct Pooled {
    store::Ref locs;
    store::Ref vars;
    store::Ref clocks;
  };

  static Pooled pool(store::ZonePool& p, const ta::DigitalState& s) {
    Pooled out;
    out.locs = store::intern_vec(p, s.locs);
    out.vars = store::intern_vec(p, s.vars);
    out.clocks = store::intern_vec(p, s.clocks);
    return out;
  }
  static void unpool(const store::ZonePool& p, const Pooled& st,
                     ta::DigitalState& s) {
    store::unpack_vec(p, st.locs, s.locs);
    store::unpack_vec(p, st.vars, s.vars);
    store::unpack_vec(p, st.clocks, s.clocks);
  }
  static bool equal(const store::ZonePool& p, const Pooled& st,
                    const ta::DigitalState& s) {
    return store::vec_equals(p, st.locs, s.locs) &&
           store::vec_equals(p, st.vars, s.vars) &&
           store::vec_equals(p, st.clocks, s.clocks);
  }
};

}  // namespace quanta::core
