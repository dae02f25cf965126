#pragma once
/// \file pipeline.hpp
/// \brief The paper's end-to-end HW-NAS pipeline: enumerate the Figure 2
/// lattice, evaluate every trial (5-fold accuracy), predict latency on the
/// four nn-Meter devices, account serialized memory, and extract the
/// Pareto front over (accuracy ↑, latency ↓, memory ↓).

#include <memory>
#include <string>
#include <vector>

#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/store/multiproc.hpp"
#include "dcnas/pareto/pareto.hpp"

namespace dcnas::core {

struct PipelineOptions {
  /// true: calibrated surrogate (full 1,728-trial sweep in seconds);
  /// false: genuine 5-fold training on the synthetic dataset (slow; used
  /// by examples and the real-training ablation).
  bool use_oracle = true;
  nas::OracleOptions oracle;

  /// Real-training path parameters (only used when use_oracle is false).
  double dataset_scale = 1.0 / 256.0;
  std::int64_t chip_size = 24;
  std::int64_t scene_size = 160;
  std::uint64_t dataset_seed = 2023;
  nas::TrainingEvaluator::Options training;

  /// Dominance relation for the front. kWeak (textbook) is the default:
  /// with byte-quantized memory values, kStrictAll keeps every memory-tied
  /// trial and the front explodes to 100+ members (see pareto.hpp for why
  /// the paper's Table 4 nevertheless contains weakly-dominated rows).
  pareto::DominanceMode dominance = pareto::DominanceMode::kWeak;

  nas::ExperimentOptions experiment;

  /// Every sweep runs on the parallel TrialScheduler; its database is
  /// byte-identical to the serial Experiment::run_all as long as
  /// scheduler.pruner stays disabled (see scheduler.hpp for the determinism
  /// contract).
  nas::SchedulerOptions scheduler;
};

/// A completed sweep with its Pareto analysis.
struct SweepResult {
  nas::TrialDatabase trials;
  std::vector<pareto::Objectives> objectives;   ///< aligned with trials
  std::vector<std::size_t> front_indices;       ///< non-dominated trials
};

class HwNasPipeline {
 public:
  explicit HwNasPipeline(const PipelineOptions& options = {});
  ~HwNasPipeline();

  /// Runs the full 1,728-point lattice (the paper's six NNI experiments)
  /// and the Pareto analysis.
  SweepResult run_full_sweep() const;

  /// Runs an arbitrary trial list (e.g. a sampled subset) + Pareto.
  SweepResult run_sweep(const std::vector<nas::TrialConfig>& configs) const;

  /// Sweeps \p spec's lattice across \p workers processes sharing
  /// \p store_dir (see store/multiproc.hpp), then assembles the Pareto
  /// analysis from the store in lattice order — byte-identical trials CSV
  /// to the serial run over spec.enumerate(). workers == 0 uses a single
  /// in-process streamed scheduler run (still through the store, so a
  /// partially complete store resumes either way). options_.scheduler
  /// supplies the per-worker scheduler knobs.
  SweepResult run_store_sweep(const nas::SearchSpaceSpec& spec,
                              const std::string& store_dir,
                              int workers) const;

  /// Stock ResNet-18 on the six input variants — Table 5.
  nas::TrialDatabase run_baselines() const;

  /// Objective extraction and front computation (also usable standalone).
  static std::vector<pareto::Objectives> objectives_of(
      const nas::TrialDatabase& db);
  static std::vector<std::size_t> front_of(const nas::TrialDatabase& db,
                                           pareto::DominanceMode mode);

  const PipelineOptions& options() const { return options_; }
  nas::Evaluator& evaluator() const { return *evaluator_; }

 private:
  PipelineOptions options_;
  // Own the datasets (real-training mode) and the evaluator.
  std::unique_ptr<geodata::DrainageDataset> dataset5_, dataset7_;
  std::unique_ptr<nas::Evaluator> evaluator_;
};

}  // namespace dcnas::core
