#include "dcnas/analysis/plan_verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "dcnas/analysis/diagnostic.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/plan/compiler.hpp"
#include "dcnas/plan/executor.hpp"
#include "dcnas/tensor/gemm.hpp"

namespace dcnas::analysis {
namespace {

using graph::GraphExecutor;
using graph::KernelKind;
using graph::ModelGraph;
using plan::CompiledPlan;
using plan::compile_plan;
using plan::kInputSlot;
using plan::PlanStep;

/// A small trained-ish ResNet model + executor (same fixture recipe as
/// compiler_test) — rich enough to carry ConvBnRelu fusions, residual adds,
/// and a pool.
struct Fixture {
  nn::ResNetConfig config;
  std::unique_ptr<nn::ConfigurableResNet> model;
  ModelGraph graph;
  std::unique_ptr<GraphExecutor> exec;
};

Fixture make_fixture(std::int64_t hw = 24) {
  Fixture f;
  f.config = nn::ResNetConfig::baseline(5);
  f.config.init_width = 32;
  f.config.conv1_kernel = 3;
  f.config.conv1_padding = 1;
  Rng rng(17);
  f.model = std::make_unique<nn::ConfigurableResNet>(f.config, rng);
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::rand_uniform({4, 5, hw, hw}, rng, -1.0f, 2.0f);
    f.model->forward(x);
  }
  f.model->set_training(false);
  f.graph = graph::build_resnet_graph(f.config, hw);
  f.exec = std::make_unique<GraphExecutor>(f.graph, *f.model);
  return f;
}

VerifyResult verify(const CompiledPlan& plan, const GraphExecutor& exec) {
  return PlanVerifier::standard().verify(plan, exec);
}

int find_step(const CompiledPlan& plan, KernelKind kind) {
  for (std::size_t t = 0; t < plan.steps.size(); ++t) {
    if (plan.steps[t].kind == kind) return static_cast<int>(t);
  }
  return -1;
}

TEST(PlanVerifierTest, CompiledPlanVerifiesClean) {
  Fixture f = make_fixture();
  const CompiledPlan plan = compile_plan(*f.exec);
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_TRUE(result.ok()) << result.to_string();
  EXPECT_TRUE(result.diagnostics.empty()) << result.to_string();
}

TEST(PlanVerifierTest, UnfusedPlanVerifiesClean) {
  Fixture f = make_fixture();
  const CompiledPlan plan = compile_plan(*f.exec, {.fuse = false});
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_TRUE(result.ok()) << result.to_string();
}

TEST(PlanVerifierTest, PreFoldedExecutorPlanVerifiesClean) {
  Fixture f = make_fixture();
  f.exec->fold_batchnorm();
  const CompiledPlan plan = compile_plan(*f.exec);
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_TRUE(result.ok()) << result.to_string();
}

TEST(PlanVerifierTest, StandardPipelineHasSixPasses) {
  const PlanVerifier v = PlanVerifier::standard();
  EXPECT_EQ(v.pass_count(), 6u);
  const auto names = v.pass_names();
  EXPECT_EQ(names.front(), "plan-arena");
  EXPECT_EQ(names.back(), "plan-quant");
}

// --- one hand-corruption per rule id ---------------------------------------

TEST(PlanVerifierTest, DetectsSlotBeyondArena) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  plan.slots[0].offset = plan.arena_size;  // extent now exceeds the arena
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanSlotBounds)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsForgedLiveness) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  // Shrink the output slot's stored live range: the re-derivation from the
  // step list disagrees.
  plan.slots[static_cast<std::size_t>(plan.output_slot)].last_use -= 1;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanLiveness)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsAliasingForAllBatchSizes) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  // Step 1 reads step 0's slot while writing its own: both are live at step
  // 1. Shifting the second onto the first aliases them at *every* batch.
  const int a = plan.steps[0].out;
  const int b = plan.steps[1].out;
  ASSERT_NE(a, b);
  plan.slots[static_cast<std::size_t>(b)].offset =
      plan.slots[static_cast<std::size_t>(a)].offset;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanAlias)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsReadBeforeDef) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  // An in-place step both reads before-def (its own write) and violates the
  // no-overwrite operand contract.
  plan.steps[0].args[0] = plan.steps[0].out;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanDefBeforeUse)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsForgedProvenance) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  const int t = find_step(plan, KernelKind::kConvBnRelu);
  ASSERT_GE(t, 0);
  // Drop the BN node from the fused chain: the step no longer decomposes as
  // its kernel kind claims, and the node is no longer covered by any step.
  auto& nodes = plan.steps[static_cast<std::size_t>(t)].nodes;
  ASSERT_EQ(nodes.size(), 3u);
  nodes.erase(nodes.begin() + 1);
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanProvenance)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsReorderedSteps) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  ASSERT_GE(plan.steps.size(), 2u);
  std::swap(plan.steps[0], plan.steps[1]);
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanStepOrder)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsIllegalBnFusion) {
  // input -> conv -> relu -> bn: the legality pass flags the BN (producer is
  // not a Conv), so the compiler keeps it standalone. Forge a plan that
  // folds it anyway.
  ModelGraph g;
  const int in = g.add_input({3, 8, 8});
  const int conv = g.add_conv(in, 4, 3, 1, 1, "conv");
  const int relu = g.add_relu(conv, "relu");
  const int bn = g.add_batchnorm(relu, "late_bn");
  g.add_output(bn);

  Rng rng(5);
  std::vector<graph::NodeState> state(g.size());
  state[static_cast<std::size_t>(conv)].conv_weight =
      Tensor::randn({4, 3 * 3 * 3}, rng, 0.0f, 0.5f);
  auto& bn_st = state[static_cast<std::size_t>(bn)];
  bn_st.bn_gamma = Tensor::rand_uniform({4}, rng, 0.5f, 1.5f);
  bn_st.bn_beta = Tensor::randn({4}, rng);
  bn_st.bn_mean = Tensor::randn({4}, rng);
  bn_st.bn_var = Tensor::rand_uniform({4}, rng, 0.1f, 2.0f);
  auto exec = graph::GraphExecutor::from_state(
      g, std::move(state), std::vector<bool>(g.size(), false));

  CompiledPlan plan = compile_plan(exec);
  const int t = find_step(plan, KernelKind::kConvRelu);
  ASSERT_GE(t, 0);
  PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
  step.kind = KernelKind::kConvBnRelu;
  step.nodes = {conv, bn, relu};  // claims to fold the refused BN
  const VerifyResult result = verify(plan, exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanFusionIllegal))
      << result.to_string();
}

TEST(PlanVerifierTest, DetectsRewiredOperand) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  // Step 1's operand is step 0's slot; repointing it at the caller's input
  // tensor is valid dataflow but wrong wiring.
  ASSERT_NE(plan.steps[1].args[0], kInputSlot);
  plan.steps[1].args[0] = kInputSlot;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanWiring)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsRedirectedOutput) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  ASSERT_NE(plan.output_slot, plan.steps[0].out);
  plan.output_slot = plan.steps[0].out;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanOutput)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsShapeMismatch) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  plan.steps[1].out_shape.c += 1;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanShape)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsTruncatedWeights) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  const int t = find_step(plan, KernelKind::kConvBnRelu);
  ASSERT_GE(t, 0);
  plan.steps[static_cast<std::size_t>(t)].weight = Tensor({5});
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  // A conv payload is packed, so its size is a layout defect.
  EXPECT_TRUE(result.has_rule(rules::kPlanWeightLayout)) << result.to_string();
}

/// conv(6 channels) -> BN -> ReLU -> GAP -> Linear: every lattice width
/// is a multiple of the 4-row micro-panel, but six channels are not, so
/// this conv's packed weights carry pad lanes.
GraphExecutor six_channel_executor() {
  ModelGraph g;
  const int in = g.add_input({3, 8, 8});
  const int conv = g.add_conv(in, 6, 3, 1, 1, "conv");
  const int bn = g.add_batchnorm(conv, "bn");
  const int relu = g.add_relu(bn, "relu");
  const int gap = g.add_global_avgpool(relu, "gap");
  const int fc = g.add_linear(gap, 2, "fc");
  g.add_output(fc);
  Rng rng(5);
  std::vector<graph::NodeState> state(g.size());
  state[conv].conv_weight = Tensor::rand_uniform({6, 27}, rng, -1.0f, 1.0f);
  graph::NodeState& b = state[static_cast<std::size_t>(bn)];
  b.bn_gamma = Tensor::rand_uniform({6}, rng, 0.5f, 1.5f);
  b.bn_beta = Tensor::rand_uniform({6}, rng, -0.5f, 0.5f);
  b.bn_mean = Tensor::rand_uniform({6}, rng, -0.5f, 0.5f);
  b.bn_var = Tensor::rand_uniform({6}, rng, 0.5f, 1.5f);
  state[fc].linear_weight = Tensor::rand_uniform({2, 6}, rng, -1.0f, 1.0f);
  state[fc].bias = Tensor::rand_uniform({2}, rng, -1.0f, 1.0f);
  return GraphExecutor::from_state(std::move(g), std::move(state),
                                   std::vector<bool>(7, false));
}

TEST(PlanVerifierTest, DetectsNonZeroPadLane) {
  const GraphExecutor exec = six_channel_executor();
  CompiledPlan plan = compile_plan(exec);
  ASSERT_TRUE(verify(plan, exec).ok());
  {
    // The padded payload runs: the plan agrees with the graph.
    Rng rng(9);
    const Tensor x = Tensor::rand_uniform({3, 3, 8, 8}, rng, -1.0f, 1.0f);
    const Tensor want = exec.run(x);
    const Tensor got = plan::PlanExecutor(plan).run(x);
    ASSERT_EQ(got.numel(), want.numel());
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-5) << j;
    }
  }
  const int t = find_step(plan, KernelKind::kConvBnRelu);
  ASSERT_GE(t, 0);
  PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
  // Rows 6 and 7 of the stem's last micro-panel are pad lanes.
  const std::int64_t oc = 6, row = 27;
  ASSERT_EQ(step.weight.numel(), packed_gemm_a_size(oc, row));
  const std::int64_t pad = packed_gemm_a_index(oc, row, 7, 20);
  EXPECT_EQ(step.weight[pad], 0.0f);
  step.weight[pad] = 1.0f;
  const VerifyResult result = verify(plan, exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanWeightLayout)) << result.to_string();
  // The rows themselves are intact, so folding replays clean.
  EXPECT_FALSE(result.has_rule(rules::kPlanFoldError)) << result.to_string();
}

TEST(PlanVerifierTest, DetectsPerturbedFoldedWeight) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  const int t = find_step(plan, KernelKind::kConvBnRelu);
  ASSERT_GE(t, 0);
  // Far outside what compile-time rounding can explain (the interval bound
  // is a few ulps wide), far below what an output-comparison smoke test
  // would notice on every input.
  plan.steps[static_cast<std::size_t>(t)].weight[0] += 1e-2f;
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.has_rule(rules::kPlanFoldError)) << result.to_string();
}

TEST(PlanVerifierTest, AcceptsFoldWithinRoundingBound) {
  // The flip side of DetectsPerturbedFoldedWeight: a weight moved by one
  // ulp — indistinguishable from legitimate compile-time rounding — must
  // NOT be flagged, or the verifier would reject honest compilers.
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  const int t = find_step(plan, KernelKind::kConvBnRelu);
  ASSERT_GE(t, 0);
  Tensor& w = plan.steps[static_cast<std::size_t>(t)].weight;
  w[0] = std::nextafter(w[0], 2.0f * w[0] + 1.0f);
  const VerifyResult result = verify(plan, *f.exec);
  EXPECT_TRUE(result.ok()) << result.to_string();
}

TEST(PlanVerifierTest, VerifyOrThrowNamesRuleIds) {
  Fixture f = make_fixture();
  CompiledPlan plan = compile_plan(*f.exec);
  EXPECT_NO_THROW(verify_plan_or_throw(plan, *f.exec, "test"));
  plan.slots[0].offset = plan.arena_size;
  try {
    verify_plan_or_throw(plan, *f.exec, "test boundary");
    FAIL() << "corrupt plan was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test boundary"), std::string::npos) << what;
    EXPECT_NE(what.find(rules::kPlanSlotBounds), std::string::npos) << what;
  }
}

TEST(PlanVerifierTest, CompilerSelfCheckHookRuns) {
  // The analysis library installs verify_plan_or_throw as the compiler's
  // self-check in debug builds; the hook mechanism itself is build-agnostic.
  const plan::PlanSelfCheck previous = plan::plan_self_check();
  static int calls = 0;
  calls = 0;
  plan::set_plan_self_check(
      [](const CompiledPlan&, const GraphExecutor&) { ++calls; });
  Fixture f = make_fixture();
  (void)compile_plan(*f.exec);
  EXPECT_EQ(calls, 1);
  plan::set_plan_self_check(previous);
}

}  // namespace
}  // namespace dcnas::analysis
