// Timed-game solving and controller synthesis in the spirit of UPPAAL-TIGA
// (§II.A.b): the model is a network of timed (game) automata whose edges are
// partitioned into controllable and uncontrollable (Edge::controllable); the
// solver computes the controller's winning region for reachability or safety
// objectives and extracts a memoryless strategy over game states.
//
// Semantics: the digital-clocks turn abstraction (DESIGN.md §4.1). In every
// state the environment may fire any enabled uncontrollable move; the
// controller may fire an enabled controllable move or wait (unit tick). The
// environment can always preempt, so the controllable predecessor requires
// all uncontrollable successors to stay winning — the conservative
// Maler-Pnueli-Sifakis rule. A synchronised move is controllable iff all
// participating edges are controllable.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/store_chain.h"
#include "common/pred.h"
#include "common/verdict.h"
#include "core/search.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ta/digital.h"
#include "ta/traits.h"

namespace quanta::game {

/// Structural predicate over digital game states; build with
/// common::loc_index_pred / pred_and / pred_or / pred_not (or labeled_pred
/// for closures) so checkpoint fingerprints can tell objectives apart.
using GamePredicate = common::Predicate<ta::DigitalState>;

enum class ActionKind { kWait, kMove };

struct StrategyAction {
  ActionKind kind = ActionKind::kWait;
  ta::Move move;  ///< valid when kind == kMove
};

class TimedGame;

/// A memoryless strategy on the reachable game graph.
class Strategy {
 public:
  /// The prescribed action, or nullopt if the state is not winning / known.
  std::optional<StrategyAction> action(const ta::DigitalState& s) const;

  std::size_t winning_states() const { return actions_.size(); }

 private:
  friend class TimedGame;
  std::unordered_map<ta::DigitalState, StrategyAction, ta::DigitalStateHash>
      actions_;
};

struct GameResult {
  /// kHolds = the initial state is in the controller's winning region,
  /// kViolated = it provably is not, kUnknown = the game graph was
  /// truncated (a fixpoint on a partial graph is unsound both ways) or the
  /// budget fired during the fixpoint itself.
  common::Verdict verdict = common::Verdict::kUnknown;
  core::SearchStats stats;  ///< of the game-graph construction
  std::size_t states_explored = 0;
  std::size_t winning_states = 0;
  Strategy strategy;
  /// Checkpoint/resume outcome of this solve (TimedGame's ckpt::Options).
  ckpt::ResumeInfo resume;

  bool controller_wins() const { return verdict == common::Verdict::kHolds; }
  common::StopReason stop() const { return stats.stop; }
};

/// With `checkpoint` enabled the whole solve is crash-safe under
/// Provider::kGame: the game-graph construction checkpoints its store, BFS
/// worklist and the per-node edge table (incrementally, as delta records),
/// and the attractor fixpoint snapshots its winning set after every sweep —
/// an interrupted solve resumed at any point yields the bit-identical
/// verdict, winning region and strategy. The fingerprint mixes the system,
/// the objective kind and the canonical AST of the objective predicate, so
/// a checkpoint never resumes under a structurally different query.
class TimedGame : ckpt::StorePayload {
 public:
  /// `limits` bounds the game-graph construction (states, deadline, memory,
  /// cancellation); a truncated build yields kUnknown results. The budget is
  /// also polled once per fixpoint sweep, so a deadline interrupts the
  /// solving phase too (stop reason in GameResult::stats).
  explicit TimedGame(const ta::System& sys, core::SearchLimits limits = {},
                     ckpt::Options checkpoint = {});

  /// Controller objective: eventually reach `goal`, whatever the
  /// environment does.
  GameResult solve_reachability(const GamePredicate& goal);

  /// Controller objective: keep the system inside `safe` forever.
  GameResult solve_safety(const GamePredicate& safe);

  const ta::DigitalSemantics& semantics() const { return sem_; }

 private:
  /// Per-state game edges; states themselves live in the store, indexed by
  /// the same dense ids.
  struct Node {
    std::vector<std::pair<std::int32_t, ta::Move>> ctrl;  ///< (succ, move)
    std::vector<std::int32_t> unctrl;
    std::int32_t tick = -1;
  };

  /// Fixpoint progress carried across an interrupt: the winning flags, the
  /// reach-attractor's witness actions and the number of completed sweeps.
  struct FixpointState {
    bool restored = false;
    std::uint64_t sweeps = 0;
    std::vector<char> win;
    std::vector<StrategyAction> act;
  };

  std::uint64_t solve_fingerprint(std::uint32_t objective,
                                  const GamePredicate& pred) const;
  /// Checkpoint payload: the edge tables of the expanded nodes, all of them
  /// in a base, those expanded since the last save in a delta. A save
  /// during the fixpoint (save_fixpoint) also carries the fixpoint
  /// progress; the last one along the chain wins.
  void encode(ckpt::io::Writer& w, bool base,
              std::size_t saved_states) const override;
  bool decode(ckpt::io::Reader& r, bool base, std::size_t states) override;
  bool decode_extra(const std::vector<ckpt::Section>& record,
                    std::size_t states) override;
  void mark_saved() override;
  void reset() override;
  void save_fixpoint();
  void build_graph(bool resumed);
  /// Checkpoint setup + optional resume + (checkpointed) graph build.
  /// Returns false when the build truncated — the result then already
  /// carries the kUnknown verdict and stop reason.
  bool prepare(std::uint32_t objective, const GamePredicate& pred,
               GameResult* result);
  GameResult solve_reachability_impl(const GamePredicate& goal);
  GameResult solve_safety_impl(const GamePredicate& safe);

  ta::DigitalSemantics sem_;
  core::SearchLimits limits_;
  ckpt::Options checkpoint_;
  core::SearchStats build_stats_;
  core::StateStore<ta::DigitalState> store_;
  core::Worklist work_{core::SearchOrder::kBfs};
  std::vector<Node> nodes_;
  /// Nodes [0, expanded_) have their edge table assigned — BFS pops in id
  /// order, so the expanded prefix is contiguous and a checkpoint delta is
  /// just the new suffix.
  std::size_t expanded_ = 0;
  bool built_ = false;
  /// The solve in progress: its objective and fixpoint progress.
  std::uint32_t objective_ = 0;
  FixpointState fix_;
  std::size_t saved_expanded_ = 0;  ///< expanded_ at the last save
  /// Re-armed by every solve; resumes only before the graph is built.
  ckpt::StoreChain<ta::DigitalState> chain_{store_, work_, *this,
                                            checkpoint_};
};

/// Exhaustively verifies a reachability strategy in closed loop: from the
/// initial state, following the strategy (with the environment free to act
/// or preempt), every path must reach `goal`; returns false if a goal-free
/// cycle or dead end is reachable.
bool verify_reach_strategy(const ta::System& sys, const Strategy& strategy,
                           const GamePredicate& goal);

/// Exhaustively verifies a safety strategy in closed loop: no reachable
/// closed-loop state violates `safe`.
bool verify_safety_strategy(const ta::System& sys, const Strategy& strategy,
                            const GamePredicate& safe);

}  // namespace quanta::game
