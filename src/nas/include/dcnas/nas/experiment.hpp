#pragma once
/// \file experiment.hpp
/// \brief Trial records, the persistent trial database, and the experiment
/// runner that glues evaluator + nn-Meter + memory accounting together —
/// the NNI-equivalent orchestration layer.

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "dcnas/common/csv.hpp"
#include "dcnas/common/thread_annotations.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/latency/predictor.hpp"
#include "dcnas/nas/evaluator.hpp"

namespace dcnas::nas {

/// Everything the Pareto analysis needs about one completed trial — the
/// columns of Table 4 plus per-device latencies.
struct TrialRecord {
  TrialConfig config;
  double accuracy = 0.0;  ///< mean 5-fold CV accuracy, percent
  std::vector<double> fold_accuracies;
  double latency_ms = 0.0;  ///< mean over the four predictors
  double lat_std = 0.0;     ///< sample stddev over the four predictors
  std::vector<std::pair<std::string, double>> per_device_ms;
  double memory_mb = 0.0;   ///< serialized model size, decimal MB
};

/// Append-only store of trial results with CSV round-tripping (the
/// experiment artifact equivalent of NNI's trial database).
class TrialDatabase {
 public:
  void add(TrialRecord record);
  const std::vector<TrialRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  const TrialRecord& record(std::size_t i) const;

  /// Best-accuracy record; throws when empty.
  const TrialRecord& best_accuracy() const;

  CsvTable to_csv() const;
  static TrialDatabase from_csv(const CsvTable& table);
  void save(const std::string& path) const;
  static TrialDatabase load(const std::string& path);

 private:
  std::vector<TrialRecord> records_;
};

struct ExperimentOptions {
  std::int64_t deployment_input_hw = graph::kDeploymentInputSize;
};

/// Runs trials: evaluator for accuracy, nn-Meter for latency on the four
/// predictors, graph serialization for memory.
class Experiment {
 public:
  Experiment(Evaluator& evaluator, const latency::NnMeter& meter,
             const ExperimentOptions& options = {});

  TrialRecord run_trial(const TrialConfig& config) const;

  /// Serial reference path: evaluates configs one at a time, in order.
  /// TrialScheduler::run (scheduler.hpp) produces a byte-identical database
  /// from a parallel fan-out; this loop stays as the determinism baseline.
  TrialDatabase run_all(const std::vector<TrialConfig>& configs) const;

  /// Fills the latency/memory half of \p r from r.config — the
  /// deterministic non-training objectives (nn-Meter prediction + model
  /// memory). run_trial == evaluator accuracy + this. Thread-safe: builds
  /// only local graphs and queries the (const) meter; results are memoized
  /// per (canonical architecture, precision) under a mutex because the
  /// hardware objectives are independent of batch and fold — on a wide
  /// lattice thousands of trials share each architecture, and rebuilding
  /// the deployment graph per trial dominates a 10^5-point sweep.
  void fill_hardware_objectives(TrialRecord& r) const;

  Evaluator& evaluator() const { return evaluator_; }
  const ExperimentOptions& options() const { return options_; }

 private:
  /// Cached hardware half of a TrialRecord (everything batch-independent).
  struct HwObjectives {
    double latency_ms = 0.0;
    double lat_std = 0.0;
    std::vector<std::pair<std::string, double>> per_device_ms;
    double memory_mb = 0.0;
  };

  Evaluator& evaluator_;
  const latency::NnMeter& meter_;
  ExperimentOptions options_;
  mutable std::mutex hw_cache_mu_;
  mutable std::unordered_map<std::string, HwObjectives> hw_cache_
      GUARDED_BY(hw_cache_mu_);
};

}  // namespace dcnas::nas
