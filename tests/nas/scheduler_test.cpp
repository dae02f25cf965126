#include "dcnas/nas/scheduler.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/common/rng.hpp"

namespace dcnas::nas {
namespace {

std::vector<TrialConfig> sample_configs(std::size_t n, std::uint64_t seed) {
  auto configs = SearchSpace::enumerate_all();
  Rng rng(seed);
  rng.shuffle(configs);
  configs.resize(n);
  return configs;
}

std::string csv_text(const TrialDatabase& db) { return db.to_csv().to_string(); }

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("dcnas_sched_test_" + name))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

// ---- determinism parity -----------------------------------------------------

TEST(SchedulerTest, ParityWithSerialAtEveryThreadCount) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(24, 3);
  const std::string serial = csv_text(exp.run_all(configs));
  for (std::size_t threads : {1u, 2u, 4u}) {
    SchedulerOptions opt;
    opt.threads = threads;
    TrialScheduler scheduler(exp, opt);
    const std::string parallel = csv_text(scheduler.run(configs));
    EXPECT_EQ(parallel, serial) << "thread count " << threads;
    EXPECT_EQ(scheduler.stats().scheduled, configs.size());
    EXPECT_EQ(scheduler.stats().completed, configs.size());
    EXPECT_EQ(scheduler.stats().pruned, 0u);
  }
}

TEST(SchedulerTest, EmptyConfigListYieldsEmptyDatabase) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  TrialScheduler scheduler(exp, {});
  EXPECT_EQ(scheduler.run({}).size(), 0u);
}

TEST(SchedulerTest, DuplicateConfigsKeepSubmissionOrder) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  std::vector<TrialConfig> configs = {TrialConfig::baseline(5, 8),
                                      TrialConfig::baseline(7, 16),
                                      TrialConfig::baseline(5, 8)};
  SchedulerOptions opt;
  opt.threads = 2;
  TrialScheduler scheduler(exp, opt);
  const std::string parallel = csv_text(scheduler.run(configs));
  EXPECT_EQ(parallel, csv_text(exp.run_all(configs)));
}

// ---- resume from the store --------------------------------------------------

SchedulerOptions store_options(const TempDir& dir, std::size_t threads) {
  SchedulerOptions opt;
  opt.threads = threads;
  opt.store_dir = dir.str();
  opt.fsync_store = false;
  return opt;
}

TEST(SchedulerTest, ResumesFromStoreWithoutReevaluating) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(12, 5);
  const TempDir dir("resume");

  const SchedulerOptions opt = store_options(dir, 2);
  const std::string serial = csv_text(exp.run_all(configs));
  {
    TrialScheduler first(exp, opt);
    EXPECT_EQ(csv_text(first.run(configs)), serial);
    EXPECT_EQ(first.stats().resumed, 0u);
  }
  TrialScheduler second(exp, opt);
  EXPECT_EQ(csv_text(second.run(configs)), serial);
  EXPECT_EQ(second.stats().resumed, configs.size());
  EXPECT_EQ(second.stats().scheduled, 0u);
  EXPECT_EQ(second.stats().folds_evaluated, 0u);
}

TEST(SchedulerTest, ResumeAfterTornTailReevaluatesOnlyTheLostTrials) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(10, 7);
  const TempDir dir("torn");

  const SchedulerOptions opt = store_options(dir, 2);
  const std::vector<TrialConfig> committed(configs.begin(), configs.end() - 1);
  std::uint64_t string_bytes = 0;
  {
    TrialScheduler first(exp, opt);
    EXPECT_EQ(csv_text(first.run(committed)),
              csv_text(exp.run_all(committed)));
    string_bytes = first.store()->string_bytes();
  }
  // Crash simulation: the last trial's strings and half its slot reached
  // disk, but the control block was never advanced past them.
  JournalEntry lost;
  lost.record = exp.run_trial(configs.back());
  for (std::size_t f = 0; f < lost.record.fold_accuracies.size(); ++f) {
    lost.fold_indices.push_back(static_cast<int>(f));
  }
  std::string pool_bytes;
  const store::TrialSlot slot =
      TrialStore::encode_slot(lost, string_bytes, &pool_bytes);
  {
    std::ofstream pool(std::filesystem::path(dir.str()) / "strings.pool",
                       std::ios::binary | std::ios::app);
    pool.write(pool_bytes.data(),
               static_cast<std::streamsize>(pool_bytes.size()));
  }
  {
    std::fstream chunk(std::filesystem::path(dir.str()) / "trials-00000.chunk",
                       std::ios::binary | std::ios::in | std::ios::out);
    chunk.seekp(static_cast<std::streamoff>(committed.size() *
                                            sizeof(store::TrialSlot)));
    chunk.write(reinterpret_cast<const char*>(&slot), sizeof(slot) / 2);
  }

  const std::string serial = csv_text(exp.run_all(configs));
  TrialScheduler second(exp, opt);
  EXPECT_EQ(csv_text(second.run(configs)), serial);
  EXPECT_EQ(second.store()->recovery().torn_records, 1u);
  // Exactly one trial (the torn one) was re-evaluated.
  EXPECT_EQ(second.stats().resumed, configs.size() - 1);
  EXPECT_EQ(second.stats().scheduled, 1u);

  // And the store healed: a third run resumes everything.
  TrialScheduler third(exp, opt);
  EXPECT_EQ(csv_text(third.run(configs)), serial);
  EXPECT_EQ(third.stats().resumed, configs.size());
}

TEST(SchedulerTest, ResumeAcrossThreadCountsCommitsEachTrialOnce) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(14, 13);
  const TempDir dir("threads");
  const std::vector<TrialConfig> first_half(configs.begin(),
                                            configs.begin() + 6);
  {
    TrialScheduler first(exp, store_options(dir, 1));
    EXPECT_EQ(csv_text(first.run(first_half)),
              csv_text(exp.run_all(first_half)));
  }
  // A wider resume sees the same committed history: the six stored trials
  // resume, only the rest run, and none is committed a second time.
  TrialScheduler second(exp, store_options(dir, 4));
  EXPECT_EQ(csv_text(second.run(configs)), csv_text(exp.run_all(configs)));
  EXPECT_EQ(second.stats().resumed, first_half.size());
  EXPECT_EQ(second.stats().scheduled, configs.size() - first_half.size());
  ASSERT_NE(second.store(), nullptr);
  EXPECT_EQ(second.store()->size(), configs.size());
}

// ---- median-stop pruning ----------------------------------------------------

TEST(MedianStopRuleTest, NeverFiresBeforeWarmupOrMinFolds) {
  MedianStopOptions opt;
  opt.enabled = true;
  opt.warmup_trials = 3;
  opt.min_folds = 2;
  MedianStopRule rule(opt);
  EXPECT_FALSE(rule.should_prune(0.0, 5));  // no curves yet
  rule.report_completed({90.0, 90.0, 90.0});
  rule.report_completed({91.0, 91.0, 91.0});
  EXPECT_FALSE(rule.should_prune(10.0, 3));  // below warmup
  rule.report_completed({92.0, 92.0, 92.0});
  EXPECT_FALSE(rule.should_prune(10.0, 1));  // below min_folds
  EXPECT_TRUE(rule.should_prune(10.0, 2));
}

TEST(MedianStopRuleTest, ComparesAgainstMedianAtTheSameStep) {
  MedianStopOptions opt;
  opt.enabled = true;
  opt.warmup_trials = 3;
  MedianStopRule rule(opt);
  rule.report_completed({80.0, 85.0});
  rule.report_completed({82.0, 86.0});
  rule.report_completed({84.0, 87.0});
  // Step-0 medians: 82; step-1: 86.
  EXPECT_TRUE(rule.should_prune(81.9, 1));
  EXPECT_FALSE(rule.should_prune(82.0, 1));
  EXPECT_TRUE(rule.should_prune(85.9, 2));
  EXPECT_FALSE(rule.should_prune(86.0, 2));
}

TEST(MedianStopRuleTest, MarginShiftsTheThreshold) {
  MedianStopOptions opt;
  opt.enabled = true;
  opt.warmup_trials = 3;
  opt.margin = 2.0;
  MedianStopRule rule(opt);
  rule.report_completed({80.0});
  rule.report_completed({82.0});
  rule.report_completed({84.0});
  EXPECT_FALSE(rule.should_prune(80.5, 1));  // above 82 - 2
  EXPECT_TRUE(rule.should_prune(79.9, 1));
}

TEST(SchedulerTest, PruningSkipsFoldsWithoutChangingSurvivors) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(48, 13);
  const TrialDatabase serial = exp.run_all(configs);
  std::map<std::string, const TrialRecord*> serial_by_key;
  for (const auto& r : serial.records()) {
    serial_by_key[r.config.lattice_key()] = &r;
  }

  SchedulerOptions opt;
  opt.threads = 4;
  opt.pruner.enabled = true;
  opt.pruner.warmup_trials = 4;
  opt.pruner.min_folds = 2;
  TrialScheduler scheduler(exp, opt);
  const TrialDatabase pruned = scheduler.run(configs);

  EXPECT_EQ(scheduler.stats().completed + scheduler.stats().pruned,
            configs.size());
  EXPECT_EQ(pruned.size(), scheduler.stats().completed);
  EXPECT_GT(scheduler.stats().pruned, 0u);
  EXPECT_GT(scheduler.stats().folds_skipped, 0u);
  // Every survivor's record is exactly the serial one.
  for (const auto& r : pruned.records()) {
    const auto it = serial_by_key.find(r.config.lattice_key());
    ASSERT_NE(it, serial_by_key.end());
    EXPECT_EQ(r.fold_accuracies, it->second->fold_accuracies);
    EXPECT_EQ(r.accuracy, it->second->accuracy);
    EXPECT_EQ(r.latency_ms, it->second->latency_ms);
    EXPECT_EQ(r.memory_mb, it->second->memory_mb);
  }
}

TEST(SchedulerTest, PrunedStoreEntriesResumeOnlyWithPrunerOn) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  const auto configs = sample_configs(32, 17);
  const TempDir dir("pruned");

  SchedulerOptions opt = store_options(dir, 4);
  opt.pruner.enabled = true;
  opt.pruner.warmup_trials = 4;
  opt.pruner.min_folds = 2;
  std::size_t pruned_count;
  {
    TrialScheduler first(exp, opt);
    (void)first.run(configs);
    pruned_count = first.stats().pruned;
  }
  ASSERT_GT(pruned_count, 0u);

  // Same pruner: everything resumes (ok and pruned entries alike).
  {
    TrialScheduler again(exp, opt);
    (void)again.run(configs);
    EXPECT_EQ(again.stats().resumed, configs.size());
  }

  // Pruner off (exact reproduction): pruned entries are *not* trusted —
  // they re-evaluate in full and the result matches the serial sweep.
  SchedulerOptions exact = opt;
  exact.pruner = {};
  TrialScheduler repro(exp, exact);
  const std::string serial = csv_text(exp.run_all(configs));
  EXPECT_EQ(csv_text(repro.run(configs)), serial);
  EXPECT_EQ(repro.stats().scheduled, pruned_count);
  EXPECT_EQ(repro.stats().resumed, configs.size() - pruned_count);
}

// ---- error propagation ------------------------------------------------------

class ThrowingEvaluator : public Evaluator {
 public:
  explicit ThrowingEvaluator(int bad_fold) : bad_fold_(bad_fold) {}
  EvalResult evaluate(const TrialConfig&) override { return {}; }
  int fold_count() const override { return 5; }
  double evaluate_fold(const TrialConfig&, int fold) override {
    if (fold == bad_fold_) throw InvalidArgument("fold exploded");
    return 85.0;
  }
  std::string name() const override { return "throwing"; }

 private:
  int bad_fold_;
};

/// Delegates to the oracle except for one poisoned (config, fold) pair —
/// lets an abort happen mid-search while every other committed value stays
/// the true oracle value.
class FlakyOracleEvaluator : public Evaluator {
 public:
  FlakyOracleEvaluator(std::string bad_key, int bad_fold)
      : bad_key_(std::move(bad_key)), bad_fold_(bad_fold) {}
  EvalResult evaluate(const TrialConfig& config) override {
    return inner_.evaluate(config);
  }
  int fold_count() const override { return inner_.fold_count(); }
  double evaluate_fold(const TrialConfig& config, int fold) override {
    if (config.lattice_key() == bad_key_ && fold == bad_fold_) {
      throw InvalidArgument("flaky fold");
    }
    return inner_.evaluate_fold(config, fold);
  }
  std::string name() const override { return inner_.name(); }

 private:
  OracleEvaluator inner_;
  std::string bad_key_;
  int bad_fold_;
};

// Every abort-path case runs through both entry points: run(configs) and
// run_streamed(stream) share one admission loop, and each must rethrow the
// first error, leave only complete kOk records in the store, and let a
// healthy second run reproduce the serial sweep byte for byte.
enum class Entry { kRun, kStreamed };

void PrintTo(Entry entry, std::ostream* os) {
  *os << (entry == Entry::kRun ? "run" : "run_streamed");
}

class SchedulerAbortTest : public ::testing::TestWithParam<Entry> {
 protected:
  /// A store dir per (case, entry point): ctest may run both at once.
  static std::string dir_name(const std::string& name) {
    return name + (GetParam() == Entry::kRun ? "_run" : "_streamed");
  }

  /// Drives \p configs through the entry point under test.
  static void drive(TrialScheduler& scheduler,
                    const std::vector<TrialConfig>& configs) {
    if (GetParam() == Entry::kRun) {
      (void)scheduler.run(configs);
    } else {
      VectorStream stream(configs);
      scheduler.run_streamed(stream);
    }
  }

  /// After an aborted run into \p dir: every store record is a complete
  /// kOk trial, and a healthy run over \p configs through the same entry
  /// point resumes from that store into the serial sweep's exact bytes. A
  /// zero-filled or partial ok entry would survive resume verbatim and
  /// break this parity.
  static void expect_clean_store_then_parity(
      const TempDir& dir, const std::vector<TrialConfig>& configs) {
    OracleEvaluator eval;
    TrialStoreOptions sopt;
    sopt.fsync_each = false;
    {
      const TrialStore store(dir.str(), sopt);
      for (std::uint64_t i = 0; i < store.size(); ++i) {
        const JournalEntry entry = store.read(i);
        EXPECT_EQ(entry.status, TrialStatus::kOk) << "record " << i;
        EXPECT_EQ(entry.record.fold_accuracies.size(),
                  static_cast<std::size_t>(eval.fold_count()))
            << "record " << i;
      }
    }
    const Experiment exp(eval, latency::NnMeter::shared());
    TrialScheduler second(exp, store_options(dir, 4));
    drive(second, configs);
    EXPECT_EQ(second.stats().resumed + second.stats().scheduled,
              configs.size());
    const TrialStore store(dir.str(), sopt);
    EXPECT_EQ(csv_text(store.assemble(configs)),
              csv_text(exp.run_all(configs)));
  }
};

INSTANTIATE_TEST_SUITE_P(EntryPoints, SchedulerAbortTest,
                         ::testing::Values(Entry::kRun, Entry::kStreamed),
                         ::testing::PrintToStringParamName());

TEST_P(SchedulerAbortTest, EvaluatorExceptionAbortsAndRethrows) {
  const auto configs = sample_configs(16, 21);
  const TempDir dir(dir_name("throwing"));
  {
    ThrowingEvaluator eval(3);
    const Experiment exp(eval, latency::NnMeter::shared());
    TrialScheduler scheduler(exp, store_options(dir, 4));
    EXPECT_THROW(drive(scheduler, configs), InvalidArgument);
    // The scheduler's pool drained cleanly: an empty run on the same
    // scheduler still works.
    drive(scheduler, {});
    EXPECT_EQ(scheduler.stats().scheduled, 0u);
  }
  expect_clean_store_then_parity(dir, configs);
}

TEST_P(SchedulerAbortTest, AbortedRunNeverCommitsIncompleteTrials) {
  const auto configs = sample_configs(16, 31);
  const TempDir dir(dir_name("abort"));
  {
    // The run aborts mid-search: in-flight trials whose remaining folds
    // were skipped by the abort must not be committed as ok (their missing
    // folds are zero-filled in memory).
    FlakyOracleEvaluator flaky(configs[8].lattice_key(), 2);
    const Experiment exp(flaky, latency::NnMeter::shared());
    TrialScheduler scheduler(exp, store_options(dir, 4));
    EXPECT_THROW(drive(scheduler, configs), InvalidArgument);
  }
  expect_clean_store_then_parity(dir, configs);
}

TEST_P(SchedulerAbortTest, FinalizeExceptionAbortsInsteadOfHanging) {
  const auto configs = sample_configs(6, 29);
  const TempDir dir(dir_name("finalize"));
  {
    OracleEvaluator eval;
    ExperimentOptions bad;
    bad.deployment_input_hw = 0;  // fill_hardware_objectives throws
    const Experiment exp(eval, latency::NnMeter::shared(), bad);
    TrialScheduler scheduler(exp, store_options(dir, 2));
    // Pre-fix this deadlocked: the finalize exception escaped onto the
    // pool worker before the in-flight bookkeeping ran, so the run waited
    // forever.
    EXPECT_THROW(drive(scheduler, configs), InvalidArgument);
  }
  expect_clean_store_then_parity(dir, configs);
}

TEST_P(SchedulerAbortTest, InvalidConfigFailsVerificationBeforeEvaluation) {
  const auto configs = sample_configs(4, 23);
  const TempDir dir(dir_name("invalid"));
  {
    auto invalid = configs;
    invalid[2].kernel_size = 11;  // not a lattice value
    OracleEvaluator eval;
    const Experiment exp(eval, latency::NnMeter::shared());
    TrialScheduler scheduler(exp, store_options(dir, 2));
    EXPECT_THROW(drive(scheduler, invalid), InvalidArgument);
  }
  // The healthy rerun is over the corrected list.
  expect_clean_store_then_parity(dir, configs);
}

}  // namespace
}  // namespace dcnas::nas
