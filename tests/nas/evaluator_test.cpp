#include "dcnas/nas/evaluator.hpp"

#include <gtest/gtest.h>

#include "dcnas/common/stats.hpp"
#include "dcnas/nas/scheduler.hpp"

namespace dcnas::nas {
namespace {

geodata::DrainageDataset tiny_dataset(int channels) {
  geodata::DatasetOptions opt;
  opt.scale = 1.0 / 100.0;
  opt.chip_size = 16;
  opt.scene_size = 128;
  opt.channels = channels;
  opt.seed = 5;
  return geodata::build_dataset(opt);
}

TEST(OracleEvaluatorTest, MeanIsAverageOfFolds) {
  OracleEvaluator eval;
  const EvalResult r = eval.evaluate(TrialConfig::baseline(7, 16));
  ASSERT_EQ(r.fold_accuracies.size(), 5u);
  EXPECT_NEAR(r.mean_accuracy, mean(r.fold_accuracies), 1e-12);
  EXPECT_EQ(eval.name(), "oracle");
}

TEST(OracleEvaluatorTest, FoldCountFollowsOptions) {
  OracleOptions opt;
  opt.folds = 3;
  OracleEvaluator eval(opt);
  EXPECT_EQ(eval.evaluate(TrialConfig::baseline(5, 8)).fold_accuracies.size(),
            3u);
}

class TrainingEvaluatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds5_ = new geodata::DrainageDataset(tiny_dataset(5));
    ds7_ = new geodata::DrainageDataset(tiny_dataset(7));
  }
  static void TearDownTestSuite() {
    delete ds5_;
    delete ds7_;
    ds5_ = nullptr;
    ds7_ = nullptr;
  }
  static geodata::DrainageDataset* ds5_;
  static geodata::DrainageDataset* ds7_;
};

geodata::DrainageDataset* TrainingEvaluatorTest::ds5_ = nullptr;
geodata::DrainageDataset* TrainingEvaluatorTest::ds7_ = nullptr;

TEST_F(TrainingEvaluatorTest, TrainsAndBeatsChance) {
  TrainingEvaluator::Options opt;
  opt.folds = 2;
  // Small dataset needs a hotter, longer schedule; 12 epochs keeps the
  // accuracy threshold comfortably clear of run-to-run float jitter (FMA
  // contraction / summation order differ across ISAs and kernel blockings).
  opt.epochs = 12;
  opt.lr = 0.02;
  TrainingEvaluator eval(*ds5_, *ds7_, opt);
  TrialConfig cfg = TrialConfig::baseline(5, 8);
  cfg.initial_output_feature = 32;
  cfg.kernel_size = 3;
  cfg.padding = 1;
  const EvalResult r = eval.evaluate(cfg);
  ASSERT_EQ(r.fold_accuracies.size(), 2u);
  // Balanced binary task: genuinely learned models beat 50% clearly.
  EXPECT_GT(r.mean_accuracy, 62.0);
  EXPECT_LE(r.mean_accuracy, 100.0);
  EXPECT_EQ(eval.name(), "training");
}

TEST_F(TrainingEvaluatorTest, UsesMatchingChannelDataset) {
  TrainingEvaluator::Options opt;
  opt.folds = 2;
  opt.epochs = 1;
  TrainingEvaluator eval(*ds5_, *ds7_, opt);
  TrialConfig cfg7 = TrialConfig::baseline(7, 8);
  cfg7.initial_output_feature = 32;
  cfg7.kernel_size = 3;
  cfg7.padding = 1;
  EXPECT_NO_THROW(eval.evaluate(cfg7));  // would throw on channel mismatch
}

TEST_F(TrainingEvaluatorTest, DeterministicPerSeed) {
  TrainingEvaluator::Options opt;
  opt.folds = 2;
  opt.epochs = 1;
  TrainingEvaluator e1(*ds5_, *ds7_, opt);
  TrainingEvaluator e2(*ds5_, *ds7_, opt);
  TrialConfig cfg = TrialConfig::baseline(5, 16);
  cfg.initial_output_feature = 32;
  cfg.kernel_size = 3;
  cfg.padding = 1;
  const EvalResult a = e1.evaluate(cfg);
  const EvalResult b = e2.evaluate(cfg);
  EXPECT_EQ(a.fold_accuracies, b.fold_accuracies);
}

TEST_F(TrainingEvaluatorTest, RejectsSwappedDatasets) {
  TrainingEvaluator::Options opt;
  EXPECT_THROW(TrainingEvaluator(*ds7_, *ds5_, opt), InvalidArgument);
}

TEST_F(TrainingEvaluatorTest, RejectsBadOptions) {
  TrainingEvaluator::Options opt;
  opt.folds = 1;
  EXPECT_THROW(TrainingEvaluator(*ds5_, *ds7_, opt), InvalidArgument);
  opt.folds = 2;
  opt.epochs = 0;
  EXPECT_THROW(TrainingEvaluator(*ds5_, *ds7_, opt), InvalidArgument);
}

// Real training through the parallel scheduler: the database must be the
// serial reference's byte for byte at every thread count, so the fold
// fan-out and the GEMM kernels under it stay deterministic.
TEST(SchedulerTest, TrainingEvaluatorParityAcrossThreadCounts) {
  const geodata::DrainageDataset ds5 = tiny_dataset(5);
  const geodata::DrainageDataset ds7 = tiny_dataset(7);
  TrainingEvaluator::Options opt;
  opt.folds = 2;
  opt.epochs = 1;
  TrainingEvaluator eval(ds5, ds7, opt);
  const Experiment exp(eval, latency::NnMeter::shared());
  // Both channel datasets and two batch sizes. Two configs keep the test
  // well inside the ctest timeout under TSan (about 300 s on 4 vCPU).
  std::vector<TrialConfig> configs = {TrialConfig::baseline(5, 8),
                                      TrialConfig::baseline(7, 16)};
  for (TrialConfig& cfg : configs) {
    cfg.initial_output_feature = 32;
    cfg.kernel_size = 3;
    cfg.padding = 1;
  }
  const std::string serial = exp.run_all(configs).to_csv().to_string();
  for (std::size_t threads : {2u, 4u}) {
    SchedulerOptions sopt;
    sopt.threads = threads;
    TrialScheduler scheduler(exp, sopt);
    EXPECT_EQ(scheduler.run(configs).to_csv().to_string(), serial)
        << "thread count " << threads;
  }
}

}  // namespace
}  // namespace dcnas::nas
