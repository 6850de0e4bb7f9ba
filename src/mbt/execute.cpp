#include "mbt/execute.h"

namespace quanta::mbt {

void LtsIut::take_taus() {
  for (;;) {
    auto taus = lts_->post(state_, kTau);
    if (taus.empty()) return;
    // Nondeterministically stop before a tau if an observable action is also
    // possible; bias towards making progress.
    if (rng_.bernoulli(0.2)) return;
    state_ = taus[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(taus.size()) - 1))];
  }
}

bool LtsIut::stimulus(int label) {
  take_taus();
  auto targets = lts_->post(state_, label);
  if (targets.empty()) return false;
  state_ = targets[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(targets.size()) - 1))];
  return true;
}

std::optional<int> LtsIut::observe() {
  take_taus();
  // Collect enabled outputs (after the taus we decided to take).
  std::vector<int> outs;
  for (int l : lts_->outputs()) {
    if (!lts_->post(state_, l).empty()) outs.push_back(l);
  }
  // Resolve remaining taus eagerly to find outputs if none are enabled here.
  while (outs.empty()) {
    auto taus = lts_->post(state_, kTau);
    if (taus.empty()) break;
    state_ = taus[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(taus.size()) - 1))];
    for (int l : lts_->outputs()) {
      if (!lts_->post(state_, l).empty()) outs.push_back(l);
    }
  }
  if (outs.empty()) return std::nullopt;  // quiescent
  int label = outs[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(outs.size()) - 1))];
  auto targets = lts_->post(state_, label);
  state_ = targets[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<int>(targets.size()) - 1))];
  return label;
}

Verdict execute_test(const TestCase& test, Iut& iut) {
  iut.reset();
  int node_idx = test.root;
  for (;;) {
    const TestNode& node = test.nodes[static_cast<std::size_t>(node_idx)];
    switch (node.kind) {
      case TestNode::Kind::kPass:
        return Verdict::kPass;
      case TestNode::Kind::kStimulate: {
        // Give the IUT a chance to produce an output racing the stimulus.
        if (!iut.stimulus(node.stimulus)) {
          // Refusal: check whether an output explains it.
          auto out = iut.observe();
          if (out && node.on_output.count(*out)) {
            node_idx = node.on_output.at(*out);
            continue;
          }
          return Verdict::kFail;
        }
        node_idx = node.after_stimulus;
        continue;
      }
      case TestNode::Kind::kObserve: {
        auto out = iut.observe();
        if (!out) {
          if (node.on_quiescence < 0) return Verdict::kFail;
          node_idx = node.on_quiescence;
          continue;
        }
        auto it = node.on_output.find(*out);
        if (it == node.on_output.end()) return Verdict::kFail;
        node_idx = it->second;
        continue;
      }
    }
  }
}

CampaignResult run_campaign(const Lts& spec, Iut& iut, std::size_t n,
                            std::uint64_t seed, exec::Executor& ex,
                            const TestGenOptions& opts) {
  // Generation is embarrassingly parallel (test i depends only on (seed, i));
  // execution stays sequential because the IUT is a single stateful box.
  std::vector<TestCase> suite = generate_suite(spec, n, seed, ex, opts);
  CampaignResult result;
  for (const TestCase& tc : suite) {
    ++result.tests;
    if (execute_test(tc, iut) == Verdict::kFail) ++result.failures;
  }
  return result;
}

}  // namespace quanta::mbt
