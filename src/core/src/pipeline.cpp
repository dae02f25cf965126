#include "dcnas/core/pipeline.hpp"

#include "dcnas/common/logging.hpp"

namespace dcnas::core {

HwNasPipeline::HwNasPipeline(const PipelineOptions& options)
    : options_(options) {
  if (options_.use_oracle) {
    evaluator_ = std::make_unique<nas::OracleEvaluator>(options_.oracle);
  } else {
    geodata::DatasetOptions ds;
    ds.scale = options_.dataset_scale;
    ds.chip_size = options_.chip_size;
    ds.scene_size = options_.scene_size;
    ds.seed = options_.dataset_seed;
    ds.channels = 5;
    dataset5_ =
        std::make_unique<geodata::DrainageDataset>(geodata::build_dataset(ds));
    ds.channels = 7;
    dataset7_ =
        std::make_unique<geodata::DrainageDataset>(geodata::build_dataset(ds));
    DCNAS_LOG_INFO << "built training datasets: " << dataset5_->size()
                   << " chips x " << options_.chip_size << "px";
    evaluator_ = std::make_unique<nas::TrainingEvaluator>(
        *dataset5_, *dataset7_, options_.training);
  }
}

HwNasPipeline::~HwNasPipeline() = default;

SweepResult HwNasPipeline::run_sweep(
    const std::vector<nas::TrialConfig>& configs) const {
  const nas::Experiment experiment(*evaluator_, latency::NnMeter::shared(),
                                   options_.experiment);
  nas::TrialScheduler scheduler(experiment, options_.scheduler);
  SweepResult result;
  result.trials = scheduler.run(configs);
  result.objectives = objectives_of(result.trials);
  result.front_indices =
      pareto::non_dominated_indices(result.objectives, options_.dominance);
  return result;
}

SweepResult HwNasPipeline::run_full_sweep() const {
  return run_sweep(nas::SearchSpace::enumerate_all());
}

SweepResult HwNasPipeline::run_store_sweep(const nas::SearchSpaceSpec& spec,
                                           const std::string& store_dir,
                                           int workers) const {
  const nas::Experiment experiment(*evaluator_, latency::NnMeter::shared(),
                                   options_.experiment);
  nas::SchedulerOptions sched = options_.scheduler;
  sched.store_dir = store_dir;
  sched.store_fingerprint = spec.fingerprint();
  if (workers <= 1) {
    nas::TrialScheduler scheduler(experiment, sched);
    nas::LatticeStream stream(spec);
    scheduler.run_streamed(stream);
  } else {
    nas::run_multiprocess_sweep(experiment, spec, workers, sched);
  }
  // Read view in lattice order — the same order a serial
  // run_sweep(spec.enumerate()) would produce, so the CSVs match byte for
  // byte (pruned trials excepted, exactly like the scheduler contract).
  nas::TrialStoreOptions sopt;
  sopt.lattice_fingerprint = spec.fingerprint();
  const nas::TrialStore store(store_dir, sopt);
  SweepResult result;
  result.trials = store.assemble(spec.enumerate());
  result.objectives = objectives_of(result.trials);
  result.front_indices =
      pareto::non_dominated_indices(result.objectives, options_.dominance);
  return result;
}

nas::TrialDatabase HwNasPipeline::run_baselines() const {
  const nas::Experiment experiment(*evaluator_, latency::NnMeter::shared(),
                                   options_.experiment);
  nas::TrialDatabase db;
  for (int channels : nas::SearchSpace::channel_options()) {
    for (int batch : nas::SearchSpace::batch_options()) {
      db.add(experiment.run_trial(nas::TrialConfig::baseline(channels, batch)));
    }
  }
  return db;
}

std::vector<pareto::Objectives> HwNasPipeline::objectives_of(
    const nas::TrialDatabase& db) {
  std::vector<pareto::Objectives> out;
  out.reserve(db.size());
  for (const auto& r : db.records()) {
    out.push_back({r.accuracy, r.latency_ms, r.memory_mb});
  }
  return out;
}

std::vector<std::size_t> HwNasPipeline::front_of(const nas::TrialDatabase& db,
                                                 pareto::DominanceMode mode) {
  return pareto::non_dominated_indices(objectives_of(db), mode);
}

}  // namespace dcnas::core
