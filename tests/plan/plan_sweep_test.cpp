/// Lattice-wide plan verification: every one of the 1,728 search-space
/// configurations compiles to a plan the PlanVerifier passes clean. The
/// graph-level twin lives in tests/analysis/sweep_test.cpp; this sweep
/// covers the *compiled artifact*. Configurations that cannot differ in
/// their plan are deduplicated (batch never affects a plan; pool_choice=0
/// collapses the pool-geometry axes; channels is the only input field the
/// model sees), and graphs are built at a reduced input size — the CI
/// plan-verify job sweeps the full deployment resolution via dcnas_lint.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "dcnas/analysis/plan_verifier.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/plan/compiler.hpp"

namespace dcnas::nas {
void PrintTo(const TrialConfig& cfg, std::ostream* os) {
  *os << cfg.canonical_arch_key();
}
}  // namespace dcnas::nas

namespace dcnas::plan {
namespace {

constexpr std::int64_t kSweepInputHw = 24;

/// One configuration per distinct plan, in enumeration order.
std::vector<nas::TrialConfig> distinct_configs() {
  std::vector<nas::TrialConfig> out;
  std::set<std::string> seen;
  for (const auto& cfg : nas::SearchSpace::enumerate_all()) {
    if (seen.insert(cfg.canonical_arch_key()).second) out.push_back(cfg);
  }
  return out;
}

TEST(PlanSweepConfigsTest, ListsAll360DistinctConfigs) {
  const auto all = nas::SearchSpace::enumerate_all();
  ASSERT_EQ(static_cast<std::int64_t>(all.size()),
            nas::SearchSpace::lattice_size());
  // 288 arch points × 2 channel options, minus pool-geometry collapse for
  // the no-pool configurations.
  EXPECT_EQ(distinct_configs().size(), 360u);
}

// One test per distinct configuration, so each runs (and times out) on its
// own.
class PlanSweepTest : public ::testing::TestWithParam<nas::TrialConfig> {};

TEST_P(PlanSweepTest, CompilesAndVerifiesClean) {
  const nas::TrialConfig& cfg = GetParam();
  const nn::ResNetConfig rc = cfg.to_resnet_config();
  Rng rng(1234);
  nn::ConfigurableResNet model(rc, rng);
  model.set_training(false);
  graph::GraphExecutor exec(graph::build_resnet_graph(rc, kSweepInputHw),
                            model);
  const CompiledPlan plan = compile_plan(exec);
  const analysis::VerifyResult result =
      analysis::PlanVerifier::standard().verify(plan, exec);
  ASSERT_TRUE(result.ok()) << cfg.lattice_key() << ":\n" << result.to_string();
  ASSERT_TRUE(result.diagnostics.empty())
      << cfg.lattice_key() << ":\n" << result.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    LatticeConfigs, PlanSweepTest, ::testing::ValuesIn(distinct_configs()),
    [](const ::testing::TestParamInfo<nas::TrialConfig>& info) {
      return info.param.canonical_arch_key();
    });

}  // namespace
}  // namespace dcnas::plan
