#include "dcnas/nas/experiment.hpp"

#include "dcnas/common/strings.hpp"
#include "dcnas/graph/fusion.hpp"
#include "dcnas/graph/serialize.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::nas {

void TrialDatabase::add(TrialRecord record) {
  records_.push_back(std::move(record));
}

const TrialRecord& TrialDatabase::record(std::size_t i) const {
  DCNAS_CHECK(i < records_.size(), "trial index out of range");
  return records_[i];
}

const TrialRecord& TrialDatabase::best_accuracy() const {
  DCNAS_CHECK(!records_.empty(), "empty trial database");
  const TrialRecord* best = &records_.front();
  for (const auto& r : records_) {
    if (r.accuracy > best->accuracy) best = &r;
  }
  return *best;
}

namespace {
const std::vector<std::string>& csv_header() {
  static const std::vector<std::string> header = {
      "channels",     "batch",       "accuracy",
      "latency_ms",   "lat_std",     "memory_mb",
      "kernel_size",  "stride",      "padding",
      "pool_choice",  "kernel_size_pool", "stride_pool",
      "initial_output_feature", "precision", "depth", "fold_accuracies"};
  return header;
}
}  // namespace

CsvTable TrialDatabase::to_csv() const {
  CsvTable table(csv_header());
  for (const auto& r : records_) {
    std::vector<std::string> folds;
    folds.reserve(r.fold_accuracies.size());
    for (double f : r.fold_accuracies) folds.push_back(format_fixed(f, 4));
    table.add_row({std::to_string(r.config.channels),
                   std::to_string(r.config.batch), format_fixed(r.accuracy, 4),
                   format_fixed(r.latency_ms, 4), format_fixed(r.lat_std, 4),
                   format_fixed(r.memory_mb, 4),
                   std::to_string(r.config.kernel_size),
                   std::to_string(r.config.stride),
                   std::to_string(r.config.padding),
                   std::to_string(r.config.pool_choice),
                   std::to_string(r.config.kernel_size_pool),
                   std::to_string(r.config.stride_pool),
                   std::to_string(r.config.initial_output_feature),
                   std::to_string(r.config.precision),
                   std::to_string(r.config.depth), join(folds, ";")});
  }
  return table;
}

TrialDatabase TrialDatabase::from_csv(const CsvTable& table) {
  // Loads are a trust boundary (saved sweep CSVs, hand-edited artifacts), so
  // every numeric cell parses locale-independently and failures name the
  // row/column instead of surfacing a bare std::stod exception. Fold lists
  // must be non-empty and the same length on every row: a truncated or
  // mixed-provenance file fails loudly here, not in downstream statistics.
  TrialDatabase db;
  std::size_t expected_folds = 0;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    TrialRecord r;
    r.config.channels = static_cast<int>(table.at_int(i, "channels"));
    r.config.batch = static_cast<int>(table.at_int(i, "batch"));
    r.config.kernel_size = static_cast<int>(table.at_int(i, "kernel_size"));
    r.config.stride = static_cast<int>(table.at_int(i, "stride"));
    r.config.padding = static_cast<int>(table.at_int(i, "padding"));
    r.config.pool_choice = static_cast<int>(table.at_int(i, "pool_choice"));
    r.config.kernel_size_pool =
        static_cast<int>(table.at_int(i, "kernel_size_pool"));
    r.config.stride_pool = static_cast<int>(table.at_int(i, "stride_pool"));
    r.config.initial_output_feature =
        static_cast<int>(table.at_int(i, "initial_output_feature"));
    // Optional columns: CSVs written before the precision/depth axes carry
    // neither and load as fp32 ResNet-18.
    r.config.precision = table.has_column("precision")
                             ? static_cast<int>(table.at_int(i, "precision"))
                             : 0;
    r.config.depth = table.has_column("depth")
                         ? static_cast<int>(table.at_int(i, "depth"))
                         : 2;
    r.config.validate_universe();
    r.accuracy = table.at_double(i, "accuracy");
    r.latency_ms = table.at_double(i, "latency_ms");
    r.lat_std = table.at_double(i, "lat_std");
    r.memory_mb = table.at_double(i, "memory_mb");
    const auto parts = split(table.at(i, "fold_accuracies"), ';');
    for (std::size_t j = 0; j < parts.size(); ++j) {
      r.fold_accuracies.push_back(
          parse_double(parts[j], "trial CSV row " + std::to_string(i) +
                                     ", fold " + std::to_string(j)));
    }
    DCNAS_CHECK(!r.fold_accuracies.empty(),
                "trial CSV row " + std::to_string(i) + " has no fold "
                "accuracies");
    if (i == 0) expected_folds = r.fold_accuracies.size();
    DCNAS_CHECK(r.fold_accuracies.size() == expected_folds,
                "trial CSV row " + std::to_string(i) + " has " +
                    std::to_string(r.fold_accuracies.size()) +
                    " fold accuracies, expected " +
                    std::to_string(expected_folds));
    db.add(std::move(r));
  }
  return db;
}

void TrialDatabase::save(const std::string& path) const {
  to_csv().save(path);
}

TrialDatabase TrialDatabase::load(const std::string& path) {
  return from_csv(CsvTable::load(path));
}

Experiment::Experiment(Evaluator& evaluator, const latency::NnMeter& meter,
                       const ExperimentOptions& options)
    : evaluator_(evaluator), meter_(meter), options_(options) {}

TrialRecord Experiment::run_trial(const TrialConfig& config) const {
  obs::Span span("nas", "nas.trial.run");
  if (span.armed()) span.arg("config", config.lattice_key());
  config.validate_universe();
  TrialRecord r;
  r.config = config;
  const EvalResult eval = evaluator_.evaluate(config);
  r.fold_accuracies = eval.fold_accuracies;
  r.accuracy = eval.mean_accuracy;
  fill_hardware_objectives(r);
  return r;
}

void Experiment::fill_hardware_objectives(TrialRecord& r) const {
  DCNAS_TRACE_SPAN("nas", "nas.trial.hardware");
  // The hardware objectives depend only on (architecture, precision) —
  // never batch — so trials sharing an architecture reuse one prediction.
  // Memoized values are bit-identical to a fresh computation (same graph,
  // same meter), so the serial-vs-scheduled parity contract is unaffected.
  const std::string cache_key =
      r.config.canonical_arch_key() + (r.config.int8() ? "|q8" : "|f32");
  {
    std::lock_guard<std::mutex> lock(hw_cache_mu_);
    auto it = hw_cache_.find(cache_key);
    if (it != hw_cache_.end()) {
      r.latency_ms = it->second.latency_ms;
      r.lat_std = it->second.lat_std;
      r.per_device_ms = it->second.per_device_ms;
      r.memory_mb = it->second.memory_mb;
      return;
    }
  }
  const graph::ModelGraph g = graph::build_resnet_graph(
      r.config.to_resnet_config(), options_.deployment_input_hw);
  // Int8 trials are metered on the quantized serving artifact: conv kernels
  // marked int8 (predictors route them to the int8 forests / roof) and
  // model size counted at 1 byte per conv weight + per-channel scales.
  const graph::Precision p =
      r.config.int8() ? graph::Precision::kInt8 : graph::Precision::kFp32;
  auto kernels = graph::fuse_graph(g);
  if (r.config.int8()) graph::set_kernels_precision(kernels, p);
  const auto latency = meter_.predict_kernels(kernels);
  r.latency_ms = latency.mean_ms;
  r.lat_std = latency.std_ms;
  r.per_device_ms = latency.per_device_ms;
  r.memory_mb = graph::model_memory_mb(g, p);
  {
    std::lock_guard<std::mutex> lock(hw_cache_mu_);
    hw_cache_.emplace(cache_key, HwObjectives{r.latency_ms, r.lat_std,
                                              r.per_device_ms, r.memory_mb});
  }
}

TrialDatabase Experiment::run_all(
    const std::vector<TrialConfig>& configs) const {
  TrialDatabase db;
  for (const TrialConfig& config : configs) db.add(run_trial(config));
  return db;
}

}  // namespace dcnas::nas
