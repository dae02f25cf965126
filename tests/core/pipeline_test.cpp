#include "dcnas/core/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace dcnas::core {
namespace {

/// Shares one full sweep across the pipeline tests (it costs a few
/// seconds; the predictors train once via NnMeter::shared()).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new HwNasPipeline();
    sweep_ = new SweepResult(pipeline_->run_full_sweep());
  }
  static void TearDownTestSuite() {
    delete sweep_;
    delete pipeline_;
    sweep_ = nullptr;
    pipeline_ = nullptr;
  }
  static HwNasPipeline* pipeline_;
  static SweepResult* sweep_;
};

HwNasPipeline* PipelineTest::pipeline_ = nullptr;
SweepResult* PipelineTest::sweep_ = nullptr;

TEST_F(PipelineTest, FullSweepCoversTheLattice) {
  EXPECT_EQ(sweep_->trials.size(), 1728u);
  EXPECT_EQ(sweep_->objectives.size(), 1728u);
  EXPECT_FALSE(sweep_->front_indices.empty());
}

TEST_F(PipelineTest, FrontIsNonDominatedAndSmall) {
  // The paper reports 5 winners; our reproduction lands the same order of
  // magnitude (well under 1% of trials) under weak dominance.
  EXPECT_GE(sweep_->front_indices.size(), 3u);
  EXPECT_LE(sweep_->front_indices.size(), 25u);
  for (std::size_t i : sweep_->front_indices) {
    for (std::size_t j = 0; j < sweep_->objectives.size(); ++j) {
      EXPECT_FALSE(pareto::dominates(sweep_->objectives[j],
                                     sweep_->objectives[i],
                                     pareto::DominanceMode::kWeak));
    }
  }
}

TEST_F(PipelineTest, WinnersShareThePaperTraits) {
  // Figure 4's observation: all non-dominated models use the smallest
  // kernel; most use the smallest width and low padding.
  int w32 = 0, p_low = 0;
  for (std::size_t i : sweep_->front_indices) {
    const auto& cfg = sweep_->trials.record(i).config;
    EXPECT_EQ(cfg.kernel_size, 3) << cfg.to_string();
    w32 += cfg.initial_output_feature == 32;
    p_low += cfg.padding <= 2;
  }
  const auto n = static_cast<int>(sweep_->front_indices.size());
  EXPECT_GE(2 * w32, n);     // at least half width-32
  EXPECT_GE(2 * p_low, n);   // at least half low padding
}

TEST_F(PipelineTest, ObjectiveRangesMatchTable3Shape) {
  double acc_min = 1e9, acc_max = -1e9, lat_min = 1e9, lat_max = -1e9,
         mem_min = 1e9, mem_max = -1e9;
  for (const auto& o : sweep_->objectives) {
    acc_min = std::min(acc_min, o.accuracy);
    acc_max = std::max(acc_max, o.accuracy);
    lat_min = std::min(lat_min, o.latency_ms);
    lat_max = std::max(lat_max, o.latency_ms);
    mem_min = std::min(mem_min, o.memory_mb);
    mem_max = std::max(mem_max, o.memory_mb);
  }
  // Paper Table 3: acc 76.19-96.13, lat 8.13-249.56, mem 11.18-44.69.
  EXPECT_NEAR(acc_min, 76.19, 4.0);
  EXPECT_NEAR(acc_max, 96.13, 1.8);
  EXPECT_NEAR(mem_min, 11.18, 0.1);
  EXPECT_NEAR(mem_max, 44.69, 0.15);
  EXPECT_NEAR(lat_min, 8.13, 4.0);
  EXPECT_GT(lat_max / lat_min, 15.0);
  EXPECT_LT(lat_max / lat_min, 60.0);
}

TEST_F(PipelineTest, BaselinesMatchTable5Shape) {
  const auto base = pipeline_->run_baselines();
  ASSERT_EQ(base.size(), 6u);
  for (const auto& r : base.records()) {
    EXPECT_EQ(r.config.initial_output_feature, 64);
    EXPECT_EQ(r.config.kernel_size, 7);
    EXPECT_NEAR(r.memory_mb, 44.7, 0.2);
    EXPECT_NEAR(r.latency_ms, 32.0, 9.0);
    EXPECT_GT(r.lat_std, 10.0);
  }
  // 7-channel rows slightly larger and slower than 5-channel rows.
  EXPECT_GT(base.record(3).memory_mb, base.record(0).memory_mb);
  EXPECT_GT(base.record(3).latency_ms, base.record(0).latency_ms);
}

TEST_F(PipelineTest, WinnersBeatBaselineEverywhereButAccuracy) {
  // §4: "all our non-dominated models surpassed the general ResNet-18":
  // lower latency (for the pooled winners), lower lat_std, less memory,
  // comparable accuracy.
  const auto base = pipeline_->run_baselines();
  double base_acc_best = 0.0;
  for (const auto& r : base.records()) {
    base_acc_best = std::max(base_acc_best, r.accuracy);
  }
  double best_winner_acc = 0.0;
  for (std::size_t i : sweep_->front_indices) {
    best_winner_acc =
        std::max(best_winner_acc, sweep_->trials.record(i).accuracy);
  }
  EXPECT_GE(best_winner_acc, base_acc_best - 0.5);
  // The fastest winner is far below the baseline's ~32 ms.
  double fastest = 1e9;
  for (std::size_t i : sweep_->front_indices) {
    fastest = std::min(fastest, sweep_->trials.record(i).latency_ms);
  }
  EXPECT_LT(fastest, 16.0);
}

TEST_F(PipelineTest, StrictAllFrontExplodesOnMemoryTies) {
  // Documented in pareto.hpp: exact memory ties make kStrictAll keep
  // far more trials than the weak relation.
  const auto strict = HwNasPipeline::front_of(
      sweep_->trials, pareto::DominanceMode::kStrictAll);
  EXPECT_GT(strict.size(), 4 * sweep_->front_indices.size());
}

TEST_F(PipelineTest, SweepIsDeterministic) {
  HwNasPipeline pipe2;
  // Re-running a small subset reproduces identical records.
  const auto all = nas::SearchSpace::enumerate_all();
  const std::vector<nas::TrialConfig> subset(all.begin(), all.begin() + 20);
  const SweepResult again = pipe2.run_sweep(subset);
  for (std::size_t i = 0; i < again.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.trials.record(i).accuracy,
                     sweep_->trials.record(i).accuracy);
    EXPECT_DOUBLE_EQ(again.trials.record(i).latency_ms,
                     sweep_->trials.record(i).latency_ms);
  }
  // The default pipeline sweeps on the trial scheduler; its CSV must be the
  // serial reference's, byte for byte.
  const nas::Experiment serial(pipe2.evaluator(), latency::NnMeter::shared());
  EXPECT_EQ(again.trials.to_csv().to_string(),
            serial.run_all(subset).to_csv().to_string());
}

// Two forked worker processes sharing one trial store assemble the same
// trials CSV and Pareto front as the in-process sweep over the same points.
TEST(StoreSweepTest, TwoWorkerProcessesMatchSerialSweep) {
  nas::SearchSpaceSpec spec = nas::SearchSpaceSpec::paper();
  spec.channels = {5};
  spec.batches = {8, 16};
  PipelineOptions options;
  options.scheduler.fsync_store = false;
  const HwNasPipeline pipeline(options);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dcnas_store_sweep_test")
          .string();
  std::filesystem::remove_all(dir);

  const SweepResult forked = pipeline.run_store_sweep(spec, dir, 2);
  std::filesystem::remove_all(dir);
  const SweepResult serial = pipeline.run_sweep(spec.enumerate());
  ASSERT_EQ(forked.trials.size(), 576u);
  EXPECT_EQ(forked.trials.to_csv().to_string(),
            serial.trials.to_csv().to_string());
  EXPECT_FALSE(forked.front_indices.empty());
  EXPECT_EQ(forked.front_indices, serial.front_indices);
}

}  // namespace
}  // namespace dcnas::core
