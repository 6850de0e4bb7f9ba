// Symbolic (zone-based) semantics of a network of timed automata: the
// transition system over (location vector, variable valuation, zone) explored
// by the model-checking engines. Zones are stored delay-closed and
// invariant-constrained, with optional max-bounds extrapolation to guarantee
// a finite zone graph.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dbm/dbm.h"
#include "ta/model.h"

namespace quanta::ta {

struct SymState {
  std::vector<int> locs;
  Valuation vars;
  dbm::Dbm zone{1};

  /// Hash of the discrete part only (location vector + variables); zones are
  /// compared via inclusion inside each discrete bucket.
  std::size_t discrete_hash() const;
  bool same_discrete(const SymState& other) const {
    return locs == other.locs && vars == other.vars;
  }
};

/// One participant of a global discrete move: (process index, edge index).
using Participant = std::pair<int, int>;
/// A global discrete move as a read-only slice of participants: one internal
/// edge, a binary sender/receiver pair, or a broadcast sender with its
/// (possibly empty) receiver set. The sender/internal edge comes first.
using MoveView = std::span<const Participant>;

/// A move that owns its participants (traces, game strategies, checkpoints).
struct Move {
  std::vector<Participant> participants;

  Move() = default;
  explicit Move(MoveView m) : participants(m.begin(), m.end()) {}

  std::string describe(const System& sys) const;
};

/// A reusable flat list of moves: every participant in one array plus the
/// end offset of each move. Enumerators clear and refill a caller-owned
/// list, so a search or a simulation step allocates nothing once the list
/// has grown to its working size.
class MoveList {
 public:
  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  MoveView operator[](std::size_t i) const {
    const std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return MoveView(parts_.data() + begin, ends_[i] - begin);
  }

  void clear() {
    parts_.clear();
    ends_.clear();
  }
  /// Appends a participant to the move under construction.
  void add(int process, int edge) { parts_.emplace_back(process, edge); }
  /// Closes the move under construction.
  void close() { ends_.push_back(static_cast<std::uint32_t>(parts_.size())); }
  /// Drops the participants of the move under construction.
  void discard() { parts_.resize(ends_.empty() ? 0 : ends_.back()); }

  /// Keeps the moves m with keep(m), in order, compacting in place.
  template <typename Keep>
  void retain(Keep keep) {
    std::size_t out_parts = 0;
    std::size_t out_moves = 0;
    std::uint32_t begin = 0;
    for (std::size_t i = 0; i < ends_.size(); ++i) {
      const std::uint32_t end = ends_[i];
      if (keep(MoveView(parts_.data() + begin, end - begin))) {
        for (std::uint32_t k = begin; k < end; ++k) {
          parts_[out_parts++] = parts_[k];
        }
        ends_[out_moves++] = static_cast<std::uint32_t>(out_parts);
      }
      begin = end;
    }
    parts_.resize(out_parts);
    ends_.resize(out_moves);
  }

 private:
  std::vector<Participant> parts_;
  std::vector<std::uint32_t> ends_;
};

struct SymTransition {
  Move move;
  SymState state;
};

class SymbolicSemantics {
 public:
  struct Options {
    bool extrapolate = true;
  };

  explicit SymbolicSemantics(const System& sys)
      : SymbolicSemantics(sys, Options{}) {}
  SymbolicSemantics(const System& sys, Options opts);

  const System& system() const { return *sys_; }

  SymState initial() const;

  /// All discrete successors (each already delay-closed / extrapolated).
  /// Convenience over enabled_moves + apply_move; the engines iterate a
  /// MoveList themselves and apply into a reused state.
  std::vector<SymTransition> successors(const SymState& s) const;

  /// Fills `out` (cleared first) with the discrete moves enabled at the
  /// data level (guards over variables, committed-location filtering, sync
  /// matching), in the order: internal edges by process and edge index,
  /// then synchronisations by sender. Zone-level enabledness is checked
  /// when the move is applied.
  void enabled_moves(const std::vector<int>& locs, const Valuation& vars,
                     MoveList& out) const;

  /// Applies a move to `s`, writing the successor into `next` (whose
  /// buffers are reused); returns false if the zone becomes empty.
  bool apply_move(const SymState& s, MoveView m, SymState& next) const;

  /// The conjunction of location invariants as a zone constraint applied to z.
  bool constrain_invariant(const std::vector<int>& locs, dbm::Dbm& z) const;

  /// Conjoins an edge guard onto z; returns false if empty.
  static bool constrain_guard(const Edge& e, dbm::Dbm& z);

  bool any_committed(const std::vector<int>& locs) const;
  bool any_urgent(const std::vector<int>& locs) const;
  /// True iff a synchronisation on an urgent channel is enabled (data level).
  bool urgent_sync_enabled(const std::vector<int>& locs,
                           const Valuation& vars) const;

  /// True iff delay is forbidden in the given discrete configuration.
  bool delay_forbidden(const std::vector<int>& locs,
                       const Valuation& vars) const;

  const std::vector<std::int32_t>& max_constants() const { return max_k_; }

  /// Indices of process p's edges leaving location loc, ascending.
  const std::vector<int>& edges_from(int p, int loc) const {
    return edges_from_[static_cast<std::size_t>(p)][static_cast<std::size_t>(loc)];
  }

  std::string state_to_string(const SymState& s) const;

 private:
  void apply_edge_effect(const Edge& e, Valuation& vars, dbm::Dbm& z) const;

  const System* sys_;
  Options opts_;
  std::vector<std::int32_t> max_k_;
  /// edges_from_[p][loc]: indices of process p's edges leaving location loc.
  std::vector<std::vector<std::vector<int>>> edges_from_;
  bool has_urgent_channel_ = false;
};

}  // namespace quanta::ta
