// Controller synthesis (§II.A.b): instead of hand-writing the train-gate
// controller of Fig. 1, pose it as a timed game (Fig. 2-3) and let the
// solver derive a winning strategy, then inspect and verify it.
#include <cstdio>

#include "game/tiga.h"
#include "models/train_game.h"

using namespace quanta;

int main() {
  auto tg = models::make_train_game({.num_trains = 2});
  std::printf("train game: %d processes (trains + unconstrained controller)\n",
              tg.system.process_count());

  // ---- Safety game: never two trains on the bridge ------------------------
  game::TimedGame game(tg.system);
  auto safe = [&tg](const ta::DigitalState& s) { return tg.mutex_ok(s.locs); };
  auto result = game.solve_safety(safe);
  std::printf("\n[safety game] %zu game states, %zu winning\n",
              result.states_explored, result.winning_states);
  std::printf("  controller %s from the initial state\n",
              result.controller_wins() ? "WINS" : "loses");

  // ---- Inspect the strategy on a few reachable states ---------------------
  ta::DigitalSemantics sem(tg.system);
  ta::DigitalState s = sem.initial();
  std::printf("\n  strategy along one environment scenario:\n");
  auto show = [&](const ta::DigitalState& state, const char* what) {
    auto action = result.strategy.action(state);
    std::printf("    after %-28s -> strategy: %s\n", what,
                !action ? "(outside winning region)"
                : action->kind == game::ActionKind::kWait
                    ? "wait"
                    : action->move.describe(tg.system).c_str());
  };
  show(s, "start");
  ta::MoveList moves;
  // Environment: train 0 approaches.
  sem.enabled_moves(s, moves);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (ta::Move(moves[i]).describe(tg.system).find("Train(0)") !=
        std::string::npos) {
      sem.apply(s, moves[i], s);
      break;
    }
  }
  show(s, "appr[0]!");
  // Environment: train 1 approaches as well — now the controller must react.
  sem.enabled_moves(s, moves);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (ta::Move(moves[i]).describe(tg.system).find("Train(1)") !=
        std::string::npos) {
      sem.apply(s, moves[i], s);
      break;
    }
  }
  show(s, "appr[1]! (two trains!)");

  // ---- Independent closed-loop verification --------------------------------
  bool verified = game::verify_safety_strategy(tg.system, result.strategy, safe);
  std::printf("\n  closed-loop verification of the synthesized controller: %s\n",
              verified ? "safe in all reachable states" : "UNSAFE");

  // ---- Reachability game ----------------------------------------------------
  auto tg2 = models::make_train_game(
      {.num_trains = 2, .first_train_approaching = true});
  game::TimedGame game2(tg2.system);
  auto goal = [&tg2](const ta::DigitalState& st) {
    return st.locs[static_cast<std::size_t>(tg2.trains[0])] == tg2.l_cross;
  };
  auto reach = game2.solve_reachability(goal);
  std::printf("\n[reachability game] force train 0 across the bridge: %s "
              "(%zu winning states)\n",
              reach.controller_wins() ? "winnable" : "not winnable",
              reach.winning_states);
  std::printf("  strategy verified in closed loop: %s\n",
              game::verify_reach_strategy(tg2.system, reach.strategy, goal)
                  ? "every run reaches the goal"
                  : "FAILED");
  return 0;
}
