// The paper's running example (Fig. 1): N trains approaching a one-track
// bridge, with a controller that maintains a FIFO queue of stopped trains.
// Transcribed from the UPPAAL model: train template (Safe/Appr/Stop/Start/
// Cross) and controller (Free/Occ + committed stop location) with the
// enqueue/front/tail/dequeue functions of Fig. 1(c).
#pragma once

#include <vector>

#include "common/pred.h"
#include "ta/model.h"
#include "ta/symbolic.h"

namespace quanta::models {

struct TrainGate {
  ta::System system;
  int num_trains = 0;

  // Channel-array base ids: channel appr[i] has id appr_base + i, etc.
  int appr_base = 0;
  int stop_base = 0;
  int go_base = 0;
  int leave_base = 0;

  int controller = 0;           ///< controller process index
  std::vector<int> trains;      ///< train process indices
  std::vector<int> train_clock; ///< global clock id of train i

  int var_len = 0;              ///< queue length variable index
  std::vector<int> var_list;    ///< queue slot variable indices (N+1 slots)
};

/// Builds the Fig. 1 model for `num_trains` trains. The SMC exit rate of
/// train i's Safe location is 1 + i, as in the paper's Fig. 4 experiment.
TrainGate make_train_gate(int num_trains);

/// The paper's safety property A[] (at most one train on the bridge), as a
/// predicate labeled "train-gate-mutex". The label keeps the closure
/// fingerprint-distinguishable, so the daemon, the smoke driver and direct
/// library runs of this property share checkpoint fingerprints.
common::Predicate<ta::SymState> train_gate_mutex(const TrainGate& tg);

}  // namespace quanta::models
