#include "models/train_gate.h"

#include <string>

namespace quanta::models {

using namespace quanta::ta;

TrainGate make_train_gate(int num_trains) {
  TrainGate tg;
  tg.num_trains = num_trains;
  System& sys = tg.system;

  tg.appr_base = sys.add_channel_array("appr", num_trains);
  tg.stop_base = sys.add_channel_array("stop", num_trains);
  tg.go_base = sys.add_channel_array("go", num_trains);
  tg.leave_base = sys.add_channel_array("leave", num_trains);

  // Queue state (Fig. 1c): id_t list[N+1]; int[0,N] len.
  const Value id_max = static_cast<Value>(num_trains > 1 ? num_trains - 1 : 0);
  for (int i = 0; i <= num_trains; ++i) {
    tg.var_list.push_back(
        sys.vars().declare("list[" + std::to_string(i) + "]", 0, 0, id_max));
  }
  tg.var_len = sys.vars().declare("len", 0, 0, static_cast<Value>(num_trains));

  const int len = tg.var_len;
  const std::vector<int> list = tg.var_list;

  auto enqueue = [len, list](Value e) {
    return [len, list, e](Valuation& v) {
      v[static_cast<std::size_t>(list[static_cast<std::size_t>(v[len])])] = e;
      v[len] += 1;
    };
  };
  auto dequeue = [len, list, num_trains](Valuation& v) {
    int n = v[len] - 1;
    for (int i = 0; i < n; ++i) {
      v[list[static_cast<std::size_t>(i)]] = v[list[static_cast<std::size_t>(i + 1)]];
    }
    v[list[static_cast<std::size_t>(n)]] = 0;
    v[len] = static_cast<Value>(n);
    (void)num_trains;
  };
  auto front_is = [len, list](Value e) {
    return [len, list, e](const Valuation& v) {
      return v[len] > 0 && v[list[0]] == e;
    };
  };

  // ---- Trains (Fig. 1a) -------------------------------------------------
  for (int id = 0; id < num_trains; ++id) {
    int x = sys.add_clock("x" + std::to_string(id));
    tg.train_clock.push_back(x);

    ProcessBuilder pb("Train(" + std::to_string(id) + ")");
    int safe = pb.location("Safe", {}, false, false, /*exit_rate=*/1.0 + id);
    int appr = pb.location("Appr", {cc_le(x, 20)});
    int stop = pb.location("Stop");
    int start = pb.location("Start", {cc_le(x, 15)});
    int cross = pb.location("Cross", {cc_le(x, 5)});
    pb.set_initial(safe);

    pb.edge(safe, appr, {}, tg.appr_base + id, SyncKind::kSend, {{x, 0}},
            nullptr, nullptr, "appr[" + std::to_string(id) + "]!");
    pb.edge(appr, cross, {cc_ge(x, 10)}, -1, SyncKind::kNone, {{x, 0}},
            nullptr, nullptr, "cross");
    pb.edge(appr, stop, {cc_le(x, 10)}, tg.stop_base + id, SyncKind::kReceive,
            {}, nullptr, nullptr, "stop[" + std::to_string(id) + "]?");
    pb.edge(stop, start, {}, tg.go_base + id, SyncKind::kReceive, {{x, 0}},
            nullptr, nullptr, "go[" + std::to_string(id) + "]?");
    pb.edge(start, cross, {cc_ge(x, 7)}, -1, SyncKind::kNone, {{x, 0}},
            nullptr, nullptr, "restart-cross");
    pb.edge(cross, safe, {cc_ge(x, 3)}, tg.leave_base + id, SyncKind::kSend,
            {}, nullptr, nullptr, "leave[" + std::to_string(id) + "]!");

    tg.trains.push_back(sys.add_process(pb.build()));
  }

  // ---- Controller (Fig. 1b) ---------------------------------------------
  {
    ProcessBuilder pb("Gate");
    int free = pb.location("Free");
    int occ = pb.location("Occ");
    int stopping = pb.location("Stopping", {}, /*committed=*/true);
    pb.set_initial(free);

    for (int e = 0; e < num_trains; ++e) {
      // Free --appr[e]? (len==0) / enqueue(e)--> Occ
      pb.edge(free, occ, {}, tg.appr_base + e, SyncKind::kReceive, {},
              [len](const Valuation& v) { return v[len] == 0; },
              enqueue(static_cast<Value>(e)),
              "appr[" + std::to_string(e) + "]? (free)");
      // Occ --appr[e]? / enqueue(e)--> Stopping (committed)
      pb.edge(occ, stopping, {}, tg.appr_base + e, SyncKind::kReceive, {},
              nullptr, enqueue(static_cast<Value>(e)),
              "appr[" + std::to_string(e) + "]? (occ)");
      // Occ --leave[e]? (e == front()) / dequeue()--> Free
      pb.edge(occ, free, {}, tg.leave_base + e, SyncKind::kReceive, {},
              front_is(static_cast<Value>(e)), dequeue,
              "leave[" + std::to_string(e) + "]?");
    }
    // Free --go[front()]! (len > 0)--> Occ
    {
      int idx = pb.edge(free, occ);
      Edge& edge = pb.edge_ref(idx);
      edge.sync = SyncKind::kSend;
      edge.channel_fn = [base = tg.go_base, list](const Valuation& v) {
        return base + v[list[0]];
      };
      edge.data_guard = [len](const Valuation& v) { return v[len] > 0; };
      edge.label = "go[front()]!";
    }
    // Stopping --stop[tail()]!--> Occ
    {
      int idx = pb.edge(stopping, occ);
      Edge& edge = pb.edge_ref(idx);
      edge.sync = SyncKind::kSend;
      edge.channel_fn = [base = tg.stop_base, len, list](const Valuation& v) {
        return base + v[list[static_cast<std::size_t>(v[len] - 1)]];
      };
      edge.label = "stop[tail()]!";
    }

    tg.controller = sys.add_process(pb.build());
  }

  sys.validate();
  return tg;
}

common::Predicate<ta::SymState> train_gate_mutex(const TrainGate& tg) {
  std::vector<int> cross_loc;
  for (int t : tg.trains) {
    cross_loc.push_back(tg.system.process(t).location_index("Cross"));
  }
  return common::labeled_pred<ta::SymState>(
      "train-gate-mutex",
      [trains = tg.trains, cross_loc](const ta::SymState& s) {
        int crossing = 0;
        for (std::size_t i = 0; i < trains.size(); ++i) {
          if (s.locs[static_cast<std::size_t>(trains[i])] == cross_loc[i]) {
            ++crossing;
          }
        }
        return crossing <= 1;
      });
}

}  // namespace quanta::models
