#include "ecdar/refinement.h"

#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "store/pool.h"
#include "core/explore.h"
#include "core/state_store.h"
#include "core/worklist.h"
#include "ecdar/internal.h"

namespace quanta::ecdar {

using internal::OpenTioaStepper;
using internal::TioaState;

namespace {

/// An alternating-simulation obligation: a pair of (refining, refined)
/// states, interned exactly into the shared exploration core.
struct PairState {
  TioaState s;
  TioaState t;

  bool operator==(const PairState&) const = default;
};

std::size_t tioa_hash(const TioaState& s) {
  std::size_t seed = common::hash_vector(s.vars);
  common::hash_combine(seed, common::hash_vector(s.clocks));
  common::hash_combine(seed, static_cast<std::size_t>(s.loc));
  return seed;
}

std::size_t tioa_bytes(const TioaState& s) {
  return s.vars.capacity() * sizeof(decltype(s.vars)::value_type) +
         s.clocks.capacity() * sizeof(decltype(s.clocks)::value_type);
}

// TioaState <-> pool payload: one blob [loc][nvars][vars...][clocks...] per
// side (the clocks length is implied by the record length). Many pairs share
// one side, so each side is interned separately.
store::Ref intern_tioa(store::ZonePool& p, const TioaState& s) {
  auto& buf = p.scratch();
  buf.clear();
  buf.push_back(s.loc);
  buf.push_back(static_cast<std::int32_t>(s.vars.size()));
  buf.insert(buf.end(), s.vars.begin(), s.vars.end());
  buf.insert(buf.end(), s.clocks.begin(), s.clocks.end());
  return p.intern(buf);
}

TioaState unpack_tioa(const store::ZonePool& p, store::Ref r) {
  const std::span<const std::int32_t> d = p.data(r);
  TioaState s;
  s.loc = d[0];
  const std::size_t nvars = static_cast<std::size_t>(d[1]);
  s.vars.assign(d.begin() + 2, d.begin() + 2 + static_cast<std::ptrdiff_t>(nvars));
  s.clocks.assign(d.begin() + 2 + static_cast<std::ptrdiff_t>(nvars), d.end());
  return s;
}

bool tioa_equals(const store::ZonePool& p, store::Ref r, const TioaState& s) {
  const std::span<const std::int32_t> d = p.data(r);
  if (d.size() != 2 + s.vars.size() + s.clocks.size()) return false;
  if (d[0] != s.loc || d[1] != static_cast<std::int32_t>(s.vars.size())) {
    return false;
  }
  std::size_t pos = 2;
  for (const auto v : s.vars) {
    if (d[pos++] != v) return false;
  }
  for (const auto c : s.clocks) {
    if (d[pos++] != c) return false;
  }
  return true;
}

struct PairTraits {
  static constexpr bool kSupportsInclusion = false;

  static std::size_t hash(const PairState& p) {
    std::size_t seed = tioa_hash(p.s);
    common::hash_combine(seed, tioa_hash(p.t));
    return seed;
  }
  static bool equal(const PairState& a, const PairState& b) { return a == b; }
  static std::size_t memory_bytes(const PairState& p) {
    return tioa_bytes(p.s) + tioa_bytes(p.t);
  }

  // --- pooled storage ---

  struct Pooled {
    store::Ref s;
    store::Ref t;
  };

  static Pooled pool(store::ZonePool& p, const PairState& pair) {
    return Pooled{intern_tioa(p, pair.s), intern_tioa(p, pair.t)};
  }
  static void unpool(const store::ZonePool& p, const Pooled& st,
                     PairState& out) {
    out = PairState{unpack_tioa(p, st.s), unpack_tioa(p, st.t)};
  }
  static bool equal(const store::ZonePool& p, const Pooled& st,
                    const PairState& pair) {
    return tioa_equals(p, st.s, pair.s) && tioa_equals(p, st.t, pair.t);
  }
};

RefinementResult check_refinement_impl(const Tioa& s_spec,
                                       const Tioa& t_spec,
                                       const core::SearchLimits& limits) {
  OpenTioaStepper s(s_spec);
  OpenTioaStepper t(t_spec);
  if (s_spec.inputs != t_spec.inputs) {
    throw std::invalid_argument(quanta::context(
        "ecdar.check_refinement",
        "specifications must share the input alphabet (got ",
        s_spec.inputs.size(), " vs ", t_spec.inputs.size(), " inputs)"));
  }

  // Co-inductive check by on-the-fly exploration of state pairs: assume the
  // relation holds, explore obligations, and fail on the first pair where an
  // alternating-simulation condition breaks. Sound for finite digital state
  // spaces because every reachable obligation is eventually checked.
  core::StateStore<PairState, PairTraits> seen;
  core::Worklist work(core::SearchOrder::kBfs);
  auto push = [&](TioaState a, TioaState b) {
    auto [id, inserted] = seen.intern(PairState{std::move(a), std::move(b)});
    if (inserted) work.push(id);
  };
  push(s.initial(), t.initial());

  RefinementResult result;
  auto fail = [&](const TioaState& ss, const TioaState& ts,
                  const std::string& why) {
    result.verdict = common::Verdict::kViolated;
    std::ostringstream os;
    os << why << " at pair (" << s.describe(ss) << ", " << t.describe(ts) << ")";
    result.reason = os.str();
    result.stats.states_stored = seen.size();
    return result;
  };

  const common::Budget& budget = limits.budget;
  const bool governed_run = budget.active();
  std::size_t poll_in = 1;
  while (!work.empty()) {
    // Copy: the store may grow while this pair's obligations are pushed.
    const PairState pair = seen.state(work.pop().id);
    const TioaState& ss = pair.s;
    const TioaState& ts = pair.t;
    ++result.pairs_explored;
    ++result.stats.states_explored;
    if (limits.reached(seen.size())) {
      result.stats.stop_for(common::StopReason::kStateLimit);
      break;
    }
    if (governed_run && --poll_in == 0) {
      poll_in = core::kBudgetPollStride;
      const common::StopReason r = budget.poll(seen.memory_bytes());
      if (r != common::StopReason::kCompleted) {
        result.stats.stop_for(r);
        break;
      }
    }

    // (i) Inputs offered by T must be accepted by S.
    for (const auto& e : t.process().edges) {
      if (e.sync != ta::SyncKind::kReceive) continue;
      if (!t.edge_enabled(ts, e)) continue;
      const ta::Edge* match =
          s.enabled_edge_for(ss, e.channel, ta::SyncKind::kReceive);
      if (match == nullptr) {
        return fail(ss, ts,
                    "input '" + t_spec.system.channel(e.channel).name +
                        "' offered by the refined spec is not accepted");
      }
      push(s.apply(ss, *match), t.apply(ts, e));
    }
    // (ii) Outputs produced by S must be allowed by T.
    for (const auto& e : s.process().edges) {
      if (e.sync != ta::SyncKind::kSend) continue;
      if (!s.edge_enabled(ss, e)) continue;
      const ta::Edge* match =
          t.enabled_edge_for(ts, e.channel, ta::SyncKind::kSend);
      if (match == nullptr) {
        return fail(ss, ts,
                    "output '" + s_spec.system.channel(e.channel).name +
                        "' of the refining spec is not allowed");
      }
      push(s.apply(ss, *match), t.apply(ts, e));
    }
    // (iii) Delays of S must be matched by T.
    if (s.can_delay(ss)) {
      if (!t.can_delay(ts)) {
        return fail(ss, ts, "the refining spec delays where the refined cannot");
      }
      push(s.delay(ss), t.delay(ts));
    }
  }
  result.stats.states_stored = seen.size();
  if (!result.stats.truncated) result.verdict = common::Verdict::kHolds;
  return result;
}

}  // namespace

RefinementResult check_refinement(const Tioa& s_spec, const Tioa& t_spec,
                                  const core::SearchLimits& limits) {
  limits.validate("ecdar.check_refinement");
  return common::governed(
      [&] { return check_refinement_impl(s_spec, t_spec, limits); },
      [](common::StopReason r) {
        RefinementResult result;
        result.stats.stop_for(r);
        return result;
      });
}

}  // namespace quanta::ecdar
