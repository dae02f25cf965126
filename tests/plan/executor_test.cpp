#include "dcnas/plan/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "dcnas/graph/builder.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/plan/compiler.hpp"

namespace dcnas::plan {
namespace {

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

/// One lattice point of the paper's 1,728-configuration search space,
/// realised as a trained-ish model + graph + op-by-op executor.
struct Bundle {
  nn::ResNetConfig config;
  std::unique_ptr<nn::ConfigurableResNet> model;
  graph::ModelGraph graph;
  std::unique_ptr<graph::GraphExecutor> exec;
};

Bundle make_bundle(const nn::ResNetConfig& config, std::int64_t hw,
                   unsigned seed) {
  Bundle b;
  b.config = config;
  Rng rng(seed);
  b.model = std::make_unique<nn::ConfigurableResNet>(b.config, rng);
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::rand_uniform(
        {4, b.config.in_channels, hw, hw}, rng, -1.0f, 2.0f);
    b.model->forward(x);
  }
  b.model->set_training(false);
  b.graph = graph::build_resnet_graph(b.config, hw);
  b.exec = std::make_unique<graph::GraphExecutor>(b.graph, *b.model);
  return b;
}

/// The differential contract from the issue: the fused-and-folded plan must
/// match the unfolded op-by-op GraphExecutor within 1e-5 elementwise.
void expect_plan_matches_graph(const Bundle& b, std::int64_t hw,
                               std::int64_t batch, unsigned seed) {
  const CompiledPlan plan = compile_plan(*b.exec);
  PlanExecutor plan_exec(plan);
  Rng rng(seed);
  const Tensor x = Tensor::rand_uniform(
      {batch, b.config.in_channels, hw, hw}, rng, -1.0f, 1.0f);
  const Tensor want = b.exec->run(x);
  const Tensor got = plan_exec.run(x);
  EXPECT_LT(max_abs_diff(want, got), 1e-5)
      << b.config.to_string() << " hw=" << hw << " batch=" << batch;
}

TEST(PlanExecutorTest, MatchesGraphExecutorBaseline) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  expect_plan_matches_graph(b, 24, 2, 3);
}

// Lattice extremes of the search space (§search_space): every knob at its
// minimum and at its maximum, plus mixed corners covering each axis.
TEST(PlanExecutorTest, MatchesGraphExecutorAtLatticeMinCorner) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 5;
  cfg.conv1_kernel = 3;
  cfg.conv1_stride = 1;
  cfg.conv1_padding = 1;
  cfg.with_pool = false;
  cfg.init_width = 32;
  Bundle b = make_bundle(cfg, 16, 11);
  expect_plan_matches_graph(b, 16, 1, 5);
}

TEST(PlanExecutorTest, MatchesGraphExecutorAtLatticeMaxCorner) {
  nn::ResNetConfig cfg;
  cfg.in_channels = 7;
  cfg.conv1_kernel = 7;
  cfg.conv1_stride = 2;
  cfg.conv1_padding = 3;
  cfg.with_pool = true;
  cfg.pool_kernel = 3;
  cfg.pool_stride = 2;
  cfg.init_width = 64;
  Bundle b = make_bundle(cfg, 40, 13);
  expect_plan_matches_graph(b, 40, 2, 7);
}

TEST(PlanExecutorTest, MatchesGraphExecutorAtMixedCorners) {
  // 7 channels, small stem, pooling with the small kernel.
  nn::ResNetConfig a;
  a.in_channels = 7;
  a.conv1_kernel = 3;
  a.conv1_stride = 2;
  a.conv1_padding = 1;
  a.with_pool = true;
  a.pool_kernel = 2;
  a.pool_stride = 1;
  a.init_width = 48;
  Bundle ba = make_bundle(a, 24, 19);
  expect_plan_matches_graph(ba, 24, 3, 23);

  // 5 channels, large stem kernel without pooling, widest stages.
  nn::ResNetConfig c;
  c.in_channels = 5;
  c.conv1_kernel = 7;
  c.conv1_stride = 1;
  c.conv1_padding = 2;
  c.with_pool = false;
  c.init_width = 64;
  Bundle bc = make_bundle(c, 18, 29);
  expect_plan_matches_graph(bc, 18, 2, 31);
}

TEST(PlanExecutorTest, MatchesAcrossBatchSizesWithOnePlan) {
  // One compiled plan (per-sample arena offsets) serves every batch size.
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  const CompiledPlan plan = compile_plan(*b.exec);
  PlanExecutor plan_exec(plan);
  Rng rng(41);
  for (std::int64_t batch : {1, 3, 8}) {
    const Tensor x = Tensor::rand_uniform(
        {batch, cfg.in_channels, 24, 24}, rng, -1.0f, 1.0f);
    EXPECT_LT(max_abs_diff(b.exec->run(x), plan_exec.run(x)), 1e-5)
        << "batch=" << batch;
  }
}

/// Rows [first, first + count) of an (N, C, H, W) tensor.
Tensor rows_of(const Tensor& x, std::int64_t first, std::int64_t count) {
  Shape shape = x.shape();
  shape[0] = count;
  Tensor out(shape);
  const std::int64_t per = x.numel() / x.dim(0);
  std::memcpy(out.data(), x.data() + first * per,
              static_cast<std::size_t>(count * per) * sizeof(float));
  return out;
}

// Serving merges requests into batches of any size, so row r of a batch-B
// run must equal the batch-1 run of that row bit for bit. Checked on the
// 24 px model the repository benchmark serves, for the fp32 plan and for
// the int8 plan calibrated on 64 random chips.
TEST(PlanExecutorTest, BatchedRowsMatchSingleRunsBitwiseFp32AndInt8) {
  nas::TrialConfig tc = nas::TrialConfig::baseline(5, 8);
  tc.initial_output_feature = 32;
  tc.kernel_size = 3;
  tc.padding = 1;
  Bundle b = make_bundle(tc.to_resnet_config(), 24, 53);
  Rng rng(59);
  const Tensor calibration =
      Tensor::rand_uniform({64, 5, 24, 24}, rng, -1.0f, 1.0f);
  const Tensor chips = Tensor::rand_uniform({32, 5, 24, 24}, rng, -1.0f, 1.0f);
  CompileOptions int8;
  int8.precision = graph::Precision::kInt8;
  int8.calibration = &calibration;

  for (const bool quantized : {false, true}) {
    const PlanExecutor exec(quantized ? compile_plan(*b.exec, int8)
                                      : compile_plan(*b.exec));
    std::vector<Tensor> singles;
    for (std::int64_t r = 0; r < chips.dim(0); ++r) {
      singles.push_back(exec.run(rows_of(chips, r, 1)));
    }
    for (const std::int64_t batch : {1, 2, 7, 32}) {
      const Tensor out = exec.run(rows_of(chips, 0, batch));
      ASSERT_EQ(out.dim(0), batch);
      for (std::int64_t r = 0; r < batch; ++r) {
        const Tensor& want = singles[static_cast<std::size_t>(r)];
        EXPECT_EQ(std::memcmp(out.data() + r * want.numel(), want.data(),
                              static_cast<std::size_t>(want.numel()) *
                                  sizeof(float)),
                  0)
            << (quantized ? "int8" : "fp32") << " batch=" << batch
            << " row=" << r;
      }
    }
  }
}

TEST(PlanExecutorTest, UnfusedPlanMatchesFusedPlan) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  CompileOptions unfused;
  unfused.fuse = false;
  PlanExecutor fused(compile_plan(*b.exec));
  PlanExecutor op_by_op(compile_plan(*b.exec, unfused));
  Rng rng(43);
  const Tensor x =
      Tensor::rand_uniform({2, cfg.in_channels, 24, 24}, rng, -1.0f, 1.0f);
  EXPECT_LT(max_abs_diff(op_by_op.run(x), fused.run(x)), 1e-5);
}

TEST(PlanExecutorTest, SteadyStateRunsAllocateNothing) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  PlanExecutor plan_exec(compile_plan(*b.exec));
  auto& allocs =
      obs::MetricsRegistry::global().counter("plan.exec.allocs");
  auto& reuse =
      obs::MetricsRegistry::global().counter("plan.exec.arena_reuse.count");
  Rng rng(47);
  // Warm up with the largest batch so the pooled arena's capacity covers
  // everything that follows.
  const Tensor warm =
      Tensor::rand_uniform({8, cfg.in_channels, 24, 24}, rng, -1.0f, 1.0f);
  plan_exec.run(warm);
  EXPECT_EQ(plan_exec.pooled_arenas(), 1u);

  const std::int64_t allocs_before = allocs.value();
  const std::int64_t reuse_before = reuse.value();
  for (std::int64_t batch : {8, 1, 4, 8, 2}) {
    const Tensor x = Tensor::rand_uniform(
        {batch, cfg.in_channels, 24, 24}, rng, -1.0f, 1.0f);
    plan_exec.run(x);
  }
  // The obs gate from the issue: zero arena allocations in steady state.
  EXPECT_EQ(allocs.value() - allocs_before, 0);
  EXPECT_EQ(reuse.value() - reuse_before, 5);
  EXPECT_EQ(plan_exec.pooled_arenas(), 1u);
}

TEST(PlanExecutorTest, ConcurrentRunsAreIsolatedAndCorrect) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  PlanExecutor plan_exec(compile_plan(*b.exec));

  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  // Per-thread distinct inputs with precomputed references: interleaved
  // runs must never bleed one thread's activations into another's arena.
  std::vector<Tensor> inputs;
  std::vector<Tensor> want;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(100 + static_cast<unsigned>(t));
    inputs.push_back(Tensor::rand_uniform(
        {1 + t % 3, cfg.in_channels, 24, 24}, rng, -1.0f, 1.0f));
    want.push_back(b.exec->run(inputs.back()));
  }
  std::vector<double> worst(kThreads, 0.0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        const Tensor got = plan_exec.run(inputs[static_cast<std::size_t>(t)]);
        double m = 0.0;
        const Tensor& ref = want[static_cast<std::size_t>(t)];
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
          m = std::max(
              m, std::abs(static_cast<double>(ref[i]) - got[i]));
        }
        worst[static_cast<std::size_t>(t)] =
            std::max(worst[static_cast<std::size_t>(t)], m);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_LT(worst[static_cast<std::size_t>(t)], 1e-5) << "thread " << t;
  }
  // Arenas leased concurrently are returned: the pool holds at most one
  // buffer per peak-concurrent run.
  EXPECT_LE(plan_exec.pooled_arenas(), static_cast<std::size_t>(kThreads));
}

TEST(PlanExecutorTest, RejectsWrongInputShape) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = 3;
  cfg.conv1_padding = 1;
  Bundle b = make_bundle(cfg, 24, 17);
  PlanExecutor plan_exec(compile_plan(*b.exec));
  Rng rng(53);
  const Tensor bad_hw =
      Tensor::rand_uniform({1, cfg.in_channels, 16, 16}, rng, -1.0f, 1.0f);
  EXPECT_THROW(plan_exec.run(bad_hw), InvalidArgument);
  const Tensor bad_c = Tensor::rand_uniform({1, 3, 24, 24}, rng, -1.0f, 1.0f);
  EXPECT_THROW(plan_exec.run(bad_c), InvalidArgument);
}

}  // namespace
}  // namespace dcnas::plan
