#include "mbt/testgen.h"

#include <optional>

namespace quanta::mbt {

TestGenerator::TestGenerator(const Lts& spec, std::uint64_t seed,
                             const TestGenOptions& opts)
    : sa_(spec), opts_(opts), rng_(seed) {}

TestCase TestGenerator::generate() {
  TestCase tc;
  tc.root = build(tc, sa_.initial(), 0);
  return tc;
}

int TestGenerator::build(TestCase& tc, int spec_state, int depth) {
  int idx = static_cast<int>(tc.nodes.size());
  tc.nodes.emplace_back();

  if (depth >= opts_.max_depth || rng_.bernoulli(opts_.stop_probability)) {
    tc.nodes[static_cast<std::size_t>(idx)].kind = TestNode::Kind::kPass;
    return idx;
  }

  auto inputs = sa_.enabled_inputs(spec_state);
  bool stimulate = !inputs.empty() && rng_.bernoulli(opts_.stimulate_bias);

  TestNode node;
  if (stimulate) {
    node.kind = TestNode::Kind::kStimulate;
    node.stimulus = inputs[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(inputs.size()) - 1))];
    int next = sa_.step(spec_state, node.stimulus);
    node.after_stimulus = build(tc, next, depth + 1);
    // The implementation may emit an output before accepting the stimulus;
    // outputs allowed by the spec keep the test sound.
    for (int o : sa_.out(spec_state)) {
      if (o == kDelta) continue;  // quiescence cannot race a stimulus
      node.on_output[o] = build(tc, sa_.step(spec_state, o), depth + 1);
    }
  } else {
    node.kind = TestNode::Kind::kObserve;
    for (int o : sa_.out(spec_state)) {
      if (o == kDelta) {
        node.on_quiescence = build(tc, sa_.step(spec_state, kDelta), depth + 1);
      } else {
        node.on_output[o] = build(tc, sa_.step(spec_state, o), depth + 1);
      }
    }
  }
  tc.nodes[static_cast<std::size_t>(idx)] = std::move(node);
  return idx;
}

std::vector<TestCase> generate_suite(const Lts& spec, std::size_t n,
                                     std::uint64_t seed, exec::Executor& ex,
                                     const TestGenOptions& opts,
                                     exec::RunTelemetry* telemetry) {
  const common::RngStream streams(seed);
  // One generator per worker (each owns the determinized suspension
  // automaton); each slot is only touched by its own worker.
  std::vector<std::optional<TestGenerator>> gens(ex.workers());
  std::vector<TestCase> suite(n);
  ex.for_each(
      0, n,
      [&](std::uint64_t i, exec::Executor::WorkerContext& ctx) {
        std::optional<TestGenerator>& gen = gens[ctx.worker_id];
        if (!gen) gen.emplace(spec, 0, opts);
        gen->reseed(streams.seed_for(i));
        TestCase tc = gen->generate();
        ctx.telemetry->sim_steps += tc.nodes.size();
        suite[static_cast<std::size_t>(i)] = std::move(tc);
      },
      /*cancel=*/nullptr, telemetry);
  return suite;
}

}  // namespace quanta::mbt
