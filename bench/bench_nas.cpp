/// Search-loop throughput: the parallel TrialScheduler vs the serial
/// Experiment::run_all reference, plus the determinism parity hash and the
/// median-stop pruning savings. Writes BENCH_nas.json.
///
/// Two load shapes, because "NAS search loop" stresses two different
/// resources:
///   - dispatch-bound: a deterministic evaluator whose folds block (sleep)
///     like the paper's NNI harness waiting on remote trials. Fold tasks
///     overlap regardless of core count, so this isolates scheduler
///     overhead; speedup should track the thread count.
///   - compute-bound: genuine k-fold training at reduced scale. Speedup is
///     bounded by physical cores — the honest number for local sweeps.
///
/// The parity hash is the FNV-1a of the scheduled run's trials CSV and must
/// equal the serial hash (scheduler.hpp's determinism contract); CI fails
/// the nas-bench job when parity_ok is false.

#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "dcnas/common/stats.hpp"
#include "dcnas/common/strings.hpp"
#include "dcnas/core/pipeline.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/store/multiproc.hpp"
#include "dcnas/nas/store/trial_store.hpp"

using namespace dcnas;

namespace {

constexpr int kSleepFolds = 5;
constexpr double kSleepMsPerFold = 2.0;

/// Deterministic stand-in for a remote trial: accuracy is a pure hash of
/// (lattice_key, fold), cost is a fixed block per fold.
class SleepEvaluator : public nas::Evaluator {
 public:
  nas::EvalResult evaluate(const nas::TrialConfig& config) override {
    nas::verify_candidate(config);
    nas::EvalResult result;
    for (int f = 0; f < kSleepFolds; ++f) {
      result.fold_accuracies.push_back(evaluate_fold(config, f));
    }
    result.mean_accuracy = mean(result.fold_accuracies);
    return result;
  }

  int fold_count() const override { return kSleepFolds; }

  double evaluate_fold(const nas::TrialConfig& config, int fold) override {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        kSleepMsPerFold));
    const std::uint64_t h =
        fnv1a64(config.lattice_key() + "#" + std::to_string(fold));
    return 80.0 + static_cast<double>(h % 1000) / 100.0;  // 80.00..89.99
  }

  std::string name() const override { return "sleep"; }
};

std::vector<nas::TrialConfig> lattice_sample(std::size_t n) {
  auto configs = nas::SearchSpace::enumerate_all();
  Rng rng(11);
  rng.shuffle(configs);
  configs.resize(std::min(n, configs.size()));
  return configs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeResult {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  double speedup = 0.0;
  std::uint64_t serial_hash = 0;
  std::uint64_t parallel_hash = 0;
  bool parity_ok = false;
  std::size_t trials = 0;
  std::size_t threads = 0;
};

ModeResult run_mode(nas::Evaluator& evaluator,
                    const std::vector<nas::TrialConfig>& configs,
                    std::size_t threads) {
  const nas::Experiment experiment(evaluator, latency::NnMeter::shared());
  ModeResult r;
  r.trials = configs.size();

  auto t0 = std::chrono::steady_clock::now();
  const nas::TrialDatabase serial_db = experiment.run_all(configs);
  r.serial_s = seconds_since(t0);
  r.serial_hash = fnv1a64(serial_db.to_csv().to_string());

  nas::SchedulerOptions opt;
  opt.threads = threads;
  nas::TrialScheduler scheduler(experiment, opt);
  r.threads = scheduler.threads();
  t0 = std::chrono::steady_clock::now();
  const nas::TrialDatabase parallel_db = scheduler.run(configs);
  r.parallel_s = seconds_since(t0);
  r.parallel_hash = fnv1a64(parallel_db.to_csv().to_string());

  r.speedup = r.parallel_s > 0.0 ? r.serial_s / r.parallel_s : 0.0;
  r.parity_ok = r.serial_hash == r.parallel_hash;
  return r;
}

struct PruneResult {
  std::size_t threads = 0;
  std::size_t total_trials = 0;
  std::size_t pruned_trials = 0;
  std::size_t folds_evaluated = 0;
  std::size_t folds_skipped = 0;
  double fold_savings_pct = 0.0;
  bool survivors_match_serial = false;
};

/// Pruning must only *remove* trials, never change a surviving trial's
/// recorded folds: every record the pruned run keeps is compared against
/// the serial record for the same lattice key.
PruneResult run_prune_mode(nas::Evaluator& evaluator,
                           const std::vector<nas::TrialConfig>& configs,
                           std::size_t threads) {
  const nas::Experiment experiment(evaluator, latency::NnMeter::shared());
  const nas::TrialDatabase serial_db = experiment.run_all(configs);

  nas::SchedulerOptions opt;
  opt.threads = threads;
  opt.pruner.enabled = true;
  opt.pruner.warmup_trials = 5;
  opt.pruner.min_folds = 2;
  nas::TrialScheduler scheduler(experiment, opt);
  const nas::TrialDatabase pruned_db = scheduler.run(configs);

  PruneResult r;
  r.threads = scheduler.threads();
  r.total_trials = configs.size();
  r.pruned_trials = scheduler.stats().pruned;
  r.folds_evaluated = scheduler.stats().folds_evaluated;
  r.folds_skipped = scheduler.stats().folds_skipped;
  const double total_folds =
      static_cast<double>(r.folds_evaluated + r.folds_skipped);
  r.fold_savings_pct =
      total_folds > 0.0
          ? 100.0 * static_cast<double>(r.folds_skipped) / total_folds
          : 0.0;

  r.survivors_match_serial = true;
  std::map<std::string, const nas::TrialRecord*> serial_by_key;
  for (const auto& rec : serial_db.records()) {
    serial_by_key[rec.config.lattice_key()] = &rec;
  }
  for (const auto& rec : pruned_db.records()) {
    const auto it = serial_by_key.find(rec.config.lattice_key());
    if (it == serial_by_key.end() ||
        rec.fold_accuracies != it->second->fold_accuracies ||
        rec.accuracy != it->second->accuracy) {
      r.survivors_match_serial = false;
      break;
    }
  }
  return r;
}

struct StoreResult {
  // Single-process store commit/replay throughput.
  std::size_t append_records = 0;
  double append_s = 0.0;
  double append_per_s = 0.0;
  double replay_s = 0.0;
  double replay_per_s = 0.0;
  // Multi-process wide-lattice sweep vs the serial reference.
  std::int64_t lattice_points = 0;  ///< raw wide-lattice size
  std::size_t trials = 0;           ///< buildable trials actually swept
  int workers = 0;
  std::size_t worker_threads = 0;
  double serial_s = 0.0;
  double multiproc_s = 0.0;
  double speedup = 0.0;
  std::uint64_t serial_hash = 0;
  std::uint64_t store_hash = 0;
  bool hash_ok = false;
  bool pareto_ok = false;
};

/// Store throughput + the tentpole parity claim: a 2-process sweep of the
/// full wide lattice, replayed from the store in lattice order, must hash
/// byte-identically to the serial sweep and carry the identical Pareto
/// front. fsync is off in both paths (crash-safety is covered by tests;
/// this measures the mmap/locking machinery).
StoreResult run_store_mode(const std::string& dir) {
  namespace fs = std::filesystem;
  StoreResult r;
  fs::create_directories(dir);  // TrialStore mkdirs only the leaf
  nas::OracleEvaluator oracle;
  const nas::Experiment experiment(oracle, latency::NnMeter::shared());

  // Append throughput: one record per paper-lattice config.
  {
    const auto configs = nas::SearchSpace::enumerate_all();
    std::vector<nas::JournalEntry> entries;
    entries.reserve(configs.size());
    for (const auto& c : configs) {
      nas::JournalEntry e;
      e.record = experiment.run_trial(c);
      for (std::size_t f = 0; f < e.record.fold_accuracies.size(); ++f) {
        e.fold_indices.push_back(static_cast<int>(f));
      }
      entries.push_back(std::move(e));
    }
    const std::string append_dir = dir + "/append";
    fs::remove_all(append_dir);
    nas::TrialStoreOptions sopt;
    sopt.fsync_each = false;
    nas::TrialStore store(append_dir, sopt);
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& e : entries) store.append(e);
    r.append_s = seconds_since(t0);
    r.append_records = entries.size();
    r.append_per_s =
        r.append_s > 0.0 ? static_cast<double>(entries.size()) / r.append_s
                         : 0.0;

    // Replay throughput: a cold handle mmaps the chunks and decodes every
    // committed record into the read view.
    t0 = std::chrono::steady_clock::now();
    nas::TrialStore replay(append_dir, sopt);
    const nas::TrialDatabase db = replay.to_database();
    r.replay_s = seconds_since(t0);
    r.replay_per_s =
        r.replay_s > 0.0 ? static_cast<double>(db.size()) / r.replay_s : 0.0;
    fs::remove_all(append_dir);
  }

  // Multi-process wide-lattice sweep vs serial (the PR parity acceptance).
  {
    const nas::SearchSpaceSpec spec = nas::SearchSpaceSpec::wide();
    r.lattice_points = spec.size();
    const auto configs = spec.enumerate();
    r.trials = configs.size();

    auto t0 = std::chrono::steady_clock::now();
    const nas::TrialDatabase serial_db = experiment.run_all(configs);
    r.serial_s = seconds_since(t0);
    const std::string serial_csv = serial_db.to_csv().to_string();
    r.serial_hash = fnv1a64(serial_csv);

    const std::string sweep_dir = dir + "/wide";
    fs::remove_all(sweep_dir);
    nas::MultiProcSweepOptions mp;
    mp.workers = 2;
    mp.scheduler.threads = 1;  // speedup isolates *process* parallelism
    mp.scheduler.fsync_store = false;
    r.worker_threads = mp.scheduler.threads;
    t0 = std::chrono::steady_clock::now();
    const nas::MultiProcSweepStats stats =
        nas::run_multiprocess_sweep(experiment, spec, sweep_dir, mp);
    r.multiproc_s = seconds_since(t0);
    r.workers = stats.workers;
    r.speedup = r.multiproc_s > 0.0 ? r.serial_s / r.multiproc_s : 0.0;

    nas::TrialStoreOptions sopt;
    sopt.lattice_fingerprint = spec.fingerprint();
    sopt.fsync_each = false;
    const nas::TrialStore store(sweep_dir, sopt);
    const nas::TrialDatabase replayed = store.assemble(configs);
    const std::string store_csv = replayed.to_csv().to_string();
    r.store_hash = fnv1a64(store_csv);
    r.hash_ok = r.serial_hash == r.store_hash;

    // Identical Pareto set: same front indices over both databases.
    r.pareto_ok =
        core::HwNasPipeline::front_of(serial_db,
                                      pareto::DominanceMode::kWeak) ==
        core::HwNasPipeline::front_of(replayed, pareto::DominanceMode::kWeak);
    fs::remove_all(sweep_dir);
  }
  fs::remove_all(dir);
  return r;
}

ModeResult g_dispatch;
ModeResult g_compute;
PruneResult g_prune;
StoreResult g_store;
double g_resume_saved_pct = 0.0;
std::size_t g_resume_threads = 0;

/// Pure dispatch overhead: oracle folds cost microseconds, so this measures
/// the scheduler's per-trial admission + fan-out + merge cost.
void BM_SchedulerDispatch(benchmark::State& state) {
  nas::OracleEvaluator oracle;
  const nas::Experiment experiment(oracle, latency::NnMeter::shared());
  nas::SchedulerOptions opt;
  opt.threads = static_cast<std::size_t>(state.range(0));
  nas::TrialScheduler scheduler(experiment, opt);
  const auto configs = lattice_sample(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run(configs).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_SchedulerDispatch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void write_bench_nas_json() {
  std::FILE* f = std::fopen("BENCH_nas.json", "w");
  if (!f) {
    std::printf("WARNING: cannot write BENCH_nas.json\n");
    return;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"host_cores\": %u,\n", cores);
  std::fprintf(f,
               "  \"dispatch_bound\": {\"trials\": %zu, \"threads\": %zu, "
               "\"serial_s\": %.4f, \"parallel_s\": %.4f, \"speedup\": %.2f, "
               "\"serial_hash\": \"%016llx\", \"parallel_hash\": \"%016llx\", "
               "\"parity_ok\": %s},\n",
               g_dispatch.trials, g_dispatch.threads, g_dispatch.serial_s,
               g_dispatch.parallel_s, g_dispatch.speedup,
               static_cast<unsigned long long>(g_dispatch.serial_hash),
               static_cast<unsigned long long>(g_dispatch.parallel_hash),
               g_dispatch.parity_ok ? "true" : "false");
  std::fprintf(f,
               "  \"compute_bound\": {\"trials\": %zu, \"threads\": %zu, "
               "\"serial_s\": %.4f, \"parallel_s\": %.4f, \"speedup\": %.2f, "
               "\"serial_hash\": \"%016llx\", \"parallel_hash\": \"%016llx\", "
               "\"parity_ok\": %s},\n",
               g_compute.trials, g_compute.threads, g_compute.serial_s,
               g_compute.parallel_s, g_compute.speedup,
               static_cast<unsigned long long>(g_compute.serial_hash),
               static_cast<unsigned long long>(g_compute.parallel_hash),
               g_compute.parity_ok ? "true" : "false");
  std::fprintf(f,
               "  \"median_stop\": {\"trials\": %zu, \"threads\": %zu, "
               "\"pruned\": %zu, "
               "\"folds_evaluated\": %zu, \"folds_skipped\": %zu, "
               "\"fold_savings_pct\": %.1f, \"survivors_match_serial\": "
               "%s},\n",
               g_prune.total_trials, g_prune.threads, g_prune.pruned_trials,
               g_prune.folds_evaluated, g_prune.folds_skipped,
               g_prune.fold_savings_pct,
               g_prune.survivors_match_serial ? "true" : "false");
  std::fprintf(f, "  \"resume_threads\": %zu,\n", g_resume_threads);
  std::fprintf(f, "  \"resume_saved_pct\": %.1f,\n", g_resume_saved_pct);
  std::fprintf(f,
               "  \"store\": {\"append_records\": %zu, "
               "\"append_records_per_s\": %.0f, \"replay_records_per_s\": "
               "%.0f, \"wide_lattice_points\": %lld, \"wide_trials\": %zu, "
               "\"workers\": %d, \"threads_per_worker\": %zu, "
               "\"serial_s\": %.1f, \"multiproc_s\": %.1f, "
               "\"multiproc_speedup\": %.2f, \"serial_hash\": \"%016llx\", "
               "\"store_hash\": \"%016llx\", \"pareto_front_match\": %s},\n",
               g_store.append_records, g_store.append_per_s,
               g_store.replay_per_s,
               static_cast<long long>(g_store.lattice_points), g_store.trials,
               g_store.workers, g_store.worker_threads, g_store.serial_s,
               g_store.multiproc_s, g_store.speedup,
               static_cast<unsigned long long>(g_store.serial_hash),
               static_cast<unsigned long long>(g_store.store_hash),
               g_store.pareto_ok ? "true" : "false");
  // Headline numbers the CI gates grep for: the dispatch-bound speedup is
  // thread-count-limited (not core-limited), so it is the stable
  // scheduler-throughput signal across runner sizes; store_parity_ok is the
  // tentpole claim (multi-process wide-lattice sweep replays byte-identical
  // to serial, same Pareto front).
  std::fprintf(f, "  \"speedup\": %.2f,\n", g_dispatch.speedup);
  std::fprintf(f, "  \"store_parity_ok\": %s,\n",
               g_store.hash_ok && g_store.pareto_ok ? "true" : "false");
  std::fprintf(f, "  \"parity_ok\": %s\n",
               g_dispatch.parity_ok && g_compute.parity_ok &&
                       g_prune.survivors_match_serial && g_store.hash_ok &&
                       g_store.pareto_ok
                   ? "true"
                   : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_nas.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = dcnas::bench::run(argc, argv, [] {
    (void)latency::NnMeter::shared();  // train predictors outside the timers
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("NAS search-loop throughput (host: %u cores)\n\n", cores);

    {
      SleepEvaluator sleeper;
      const auto configs = lattice_sample(64);
      g_dispatch = run_mode(sleeper, configs, 8);
      std::printf("dispatch-bound (%.0fms x %d folds x %zu trials): serial "
                  "%.2fs, %zu threads %.2fs -> %.2fx, parity %s\n",
                  kSleepMsPerFold, kSleepFolds, g_dispatch.trials,
                  g_dispatch.serial_s, g_dispatch.threads,
                  g_dispatch.parallel_s, g_dispatch.speedup,
                  g_dispatch.parity_ok ? "OK" : "MISMATCH");
    }

    {
      geodata::DatasetOptions ds;
      ds.scale = 1.0 / 256.0;
      ds.chip_size = 24;
      ds.scene_size = 160;
      ds.seed = 2023;
      ds.channels = 5;
      const auto dataset5 = geodata::build_dataset(ds);
      ds.channels = 7;
      const auto dataset7 = geodata::build_dataset(ds);
      nas::TrainingEvaluator::Options topt;
      topt.folds = 3;
      topt.epochs = 2;
      nas::TrainingEvaluator trainer(dataset5, dataset7, topt);
      g_compute = run_mode(trainer, lattice_sample(6), 0);
      std::printf("compute-bound (3-fold training x %zu trials): serial "
                  "%.2fs, %zu threads %.2fs -> %.2fx, parity %s\n",
                  g_compute.trials, g_compute.serial_s, g_compute.threads,
                  g_compute.parallel_s, g_compute.speedup,
                  g_compute.parity_ok ? "OK" : "MISMATCH");
    }

    {
      nas::OracleEvaluator oracle;
      g_prune = run_prune_mode(oracle, lattice_sample(96), 4);
      std::printf("median-stop: %zu/%zu trials pruned, %.1f%% of folds "
                  "skipped, survivors %s serial\n",
                  g_prune.pruned_trials, g_prune.total_trials,
                  g_prune.fold_savings_pct,
                  g_prune.survivors_match_serial ? "match" : "DIVERGE from");
    }

    {
      // Resume: commit half the trials to a store, then re-run the full
      // list against it.
      SleepEvaluator sleeper;
      const nas::Experiment experiment(sleeper, latency::NnMeter::shared());
      const auto configs = lattice_sample(32);
      const std::string store_dir = "bench_nas_resume_store";
      std::filesystem::remove_all(store_dir);
      nas::SchedulerOptions opt;
      opt.threads = 8;
      opt.store_dir = store_dir;
      opt.fsync_store = false;
      {
        nas::TrialScheduler warm(experiment, opt);
        (void)warm.run(std::vector<nas::TrialConfig>(
            configs.begin(), configs.begin() + 16));
      }
      nas::TrialScheduler resume(experiment, opt);
      g_resume_threads = resume.threads();
      const auto t0 = std::chrono::steady_clock::now();
      (void)resume.run(configs);
      const double resumed_s = seconds_since(t0);
      g_resume_saved_pct =
          100.0 * static_cast<double>(resume.stats().resumed) /
          static_cast<double>(configs.size());
      std::printf("resume: %zu/%zu trials served from the store "
                  "(%.2fs for the rest)\n",
                  resume.stats().resumed, configs.size(), resumed_s);
      std::filesystem::remove_all(store_dir);
    }

    {
      std::printf("store: sweeping the wide lattice serially and with 2 "
                  "worker processes (several minutes)...\n");
      g_store = run_store_mode("bench_nas_store");
      std::printf("store: append %.0f records/s, replay %.0f records/s; "
                  "wide lattice %zu trials serial %.1fs vs %d-proc %.1fs -> "
                  "%.2fx, hash %s, pareto %s\n",
                  g_store.append_per_s, g_store.replay_per_s, g_store.trials,
                  g_store.serial_s, g_store.workers, g_store.multiproc_s,
                  g_store.speedup, g_store.hash_ok ? "OK" : "MISMATCH",
                  g_store.pareto_ok ? "OK" : "MISMATCH");
    }
  });
  if (rc == 0) write_bench_nas_json();
  return rc;
}
