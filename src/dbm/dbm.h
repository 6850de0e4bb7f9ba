// Difference Bound Matrices: the canonical symbolic representation of clock
// zones used by the timed-automata engines (UPPAAL-style verification, TRON
// online testing, ECDAR refinement).
//
// A DBM of dimension n represents a conjunction of constraints
//   x_i - x_j <= m   or   x_i - x_j < m      (0 <= i, j < n)
// where clock 0 is the constant reference clock (value 0), so row/column 0
// encodes upper/lower bounds of individual clocks.
//
// Bounds are stored in the classic "raw" encoding: raw = 2*m + (strict ? 0 : 1)
// so that raw comparison orders constraint strength and min/max work directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace quanta::dbm {

using raw_t = std::int32_t;

/// Largest representable finite bound value (anything larger is "no bound").
inline constexpr std::int32_t kInfValue = 1 << 28;
/// Raw encoding of "no constraint".
inline constexpr raw_t kInf = (kInfValue << 1) | 1;
/// Raw encoding of `<= 0`.
inline constexpr raw_t kLeZero = 1;
/// Raw encoding of `< 0` (only arises in intermediate computations).
inline constexpr raw_t kLtZero = 0;

/// Builds a raw bound from value and strictness.
constexpr raw_t make_bound(std::int32_t value, bool strict) {
  return static_cast<raw_t>((value << 1) | (strict ? 0 : 1));
}
constexpr raw_t bound_le(std::int32_t value) { return make_bound(value, false); }
constexpr raw_t bound_lt(std::int32_t value) { return make_bound(value, true); }

constexpr std::int32_t bound_value(raw_t raw) { return raw >> 1; }
constexpr bool bound_is_strict(raw_t raw) { return (raw & 1) == 0; }

/// Addition of bounds with infinity absorption; strict if either is strict.
constexpr raw_t bound_add(raw_t a, raw_t b) {
  if (a >= kInf || b >= kInf) return kInf;
  return static_cast<raw_t>(((bound_value(a) + bound_value(b)) << 1) |
                            ((a & b) & 1));
}

/// Negation of a bound: not(x <= m) == (x > m) == (-x < -m).
/// (m, <=) -> (-m, <), (m, <) -> (-m, <=).
constexpr raw_t bound_negate(raw_t raw) {
  return make_bound(-bound_value(raw), !bound_is_strict(raw));
}

std::string bound_to_string(raw_t raw);

/// How two zones relate under set inclusion.
enum class Relation { kEqual, kSubset, kSuperset, kDifferent };

class Dbm;

/// Non-owning view of a canonical DBM whose raw bounds live elsewhere —
/// in practice inside a store::ZonePool arena. Carries (dim, pointer)
/// only, so zone comparison against pooled storage never materializes an
/// owning Dbm. The pointed-at row-major matrix must use the exact layout
/// of Dbm::raw_data() and outlive the view.
class DbmView {
 public:
  DbmView(int dim, const raw_t* data) : dim_(dim), m_(data) {}

  int dim() const { return dim_; }
  const raw_t* data() const { return m_; }
  raw_t at(int i, int j) const {
    return m_[static_cast<std::size_t>(i) * static_cast<std::size_t>(dim_) + j];
  }
  bool is_empty() const { return at(0, 0) < kLeZero; }

  /// Set-inclusion relation with another canonical DBM of the same
  /// dimension; identical semantics to Dbm::relation.
  Relation relation(const DbmView& other) const;
  bool equal(const DbmView& other) const;

 private:
  int dim_;
  const raw_t* m_;
};

class Dbm {
 public:
  /// Constructs the *empty* relation holder of the given dimension; use the
  /// named factories below for meaningful zones. dim >= 1 (reference clock).
  explicit Dbm(int dim);

  /// The zone where every clock equals 0.
  static Dbm zero(int dim);
  /// The zone of all valuations with non-negative clocks.
  static Dbm universal(int dim);

  int dim() const { return dim_; }

  raw_t at(int i, int j) const { return m_[static_cast<std::size_t>(i) * dim_ + j]; }
  void set(int i, int j, raw_t v) { m_[static_cast<std::size_t>(i) * dim_ + j] = v; }

  /// Floyd-Warshall canonicalization. Returns false (and marks the zone
  /// empty) if the constraint system is inconsistent.
  bool close();

  bool is_empty() const;

  /// Conjoins constraint x_i - x_j (raw) and restores canonical form
  /// incrementally. Returns false if the zone becomes empty.
  bool constrain(int i, int j, raw_t bound);
  bool constrain_le(int i, int j, std::int32_t value) {
    return constrain(i, j, bound_le(value));
  }

  /// True iff the zone intersected with x_i - x_j (raw) is non-empty.
  /// Does not modify the zone.
  bool satisfies(int i, int j, raw_t bound) const;

  /// Delay: removes upper bounds on all clocks (future closure).
  void up();
  /// Past: removes lower bounds on all clocks (down closure).
  void down();
  /// Resets clock i to the (non-negative) constant value.
  void reset(int clock, std::int32_t value);
  /// Removes all constraints on clock i.
  void free_clock(int clock);
  /// Assigns clock i := clock j.
  void copy_clock(int dst, int src);

  /// Set-inclusion relation with another canonical DBM of the same dimension.
  Relation relation(const Dbm& other) const;
  /// Same, against a non-owning view of pooled zone storage.
  Relation relation(const DbmView& other) const;
  bool subset_eq(const Dbm& other) const;

  /// The row-major raw-bound matrix (dim*dim entries) — the fixed-width
  /// payload interned into store::ZonePool and written by the checkpoint codec.
  const raw_t* raw_data() const { return m_.data(); }
  DbmView view() const { return DbmView(dim_, m_.data()); }
  /// Rebuilds an owning Dbm from a raw matrix in raw_data() layout. The
  /// input must already be canonical (it came from a canonical Dbm).
  static Dbm from_raw(int dim, const raw_t* data);

  /// True iff the intersection with `other` is non-empty.
  bool intersects(const Dbm& other) const;
  /// Intersects in place; returns false if empty.
  bool intersect(const Dbm& other);

  /// Classic maximal-bounds extrapolation: bounds above k[i] are abstracted
  /// away so that the zone graph becomes finite. k[0] must be 0. Re-closes.
  void extrapolate_max_bounds(const std::vector<std::int32_t>& k);

  /// Membership test for a concrete clock valuation (v[0] must be 0).
  bool contains_point(const std::vector<double>& v) const;

  /// Tightest raw upper bound on clock i (row i, column 0).
  raw_t upper_bound(int clock) const { return at(clock, 0); }
  /// Tightest raw lower bound of clock i, as the raw of x_0 - x_i.
  raw_t lower_bound(int clock) const { return at(0, clock); }

  bool operator==(const Dbm& other) const = default;

  std::size_t hash() const;
  std::string to_string() const;

 private:
  int dim_;
  std::vector<raw_t> m_;
};

}  // namespace quanta::dbm
