/// nas_sweep: the paper's search over a fixed stride of the wide lattice,
/// streamed through HwNasPipeline::run_store_sweep into a durable on-disk
/// TrialStore, ending with the Pareto front; and the NAS part of the
/// per-layer ledger.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "dcnas/common/strings.hpp"
#include "dcnas/core/pipeline.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/latency/predictor.hpp"
#include "dcnas/nas/evaluator.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nas/store/trial_store.hpp"
#include "workloads.hpp"

namespace repobench {

using namespace dcnas;

namespace {

/// A fixed stride of SearchSpaceSpec::wide(): every other width and the
/// middle batch, pool kernel and depth, all other axes whole -- 1,536
/// lattice points, 1,344 buildable, so a run times a dozen or more sweeps.
/// The seed drives the accuracy oracle; the lattice itself stays fixed.
nas::SearchSpaceSpec sweep_spec(const Options& options) {
  nas::SearchSpaceSpec spec = nas::SearchSpaceSpec::wide();
  auto take = [](std::vector<int>& axis, std::size_t count) {
    const std::size_t stride = axis.size() / count;
    std::vector<int> kept;
    for (std::size_t j = 0; j < count; ++j) {
      kept.push_back(axis[stride / 2 + j * stride]);
    }
    axis = std::move(kept);
  };
  take(spec.batches, 1);
  take(spec.pool_kernels, 1);
  take(spec.widths, 3);
  take(spec.depths, 1);
  if (options.smoke) take(spec.paddings, 2);
  return spec;
}

/// Scheduler threads: one per core, the workload's whole thread budget.
std::size_t sweep_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

core::PipelineOptions pipeline_options(const Options& options) {
  core::PipelineOptions popt;
  popt.use_oracle = true;
  popt.oracle.seed = options.seed;
  popt.scheduler.threads = sweep_threads();
  return popt;
}

/// The serial reference for the sweep: Experiment::run_all over the same
/// configs, its CSV hash and its Pareto front. Computed before timing.
struct NasReference {
  nas::TrialDatabase db;
  std::uint64_t csv_hash = 0;
  std::vector<std::size_t> front;
};

NasReference reference_of(const core::HwNasPipeline& pipeline,
                          const std::vector<nas::TrialConfig>& configs) {
  const nas::Experiment experiment(pipeline.evaluator(),
                                   latency::NnMeter::shared());
  NasReference ref;
  ref.db = experiment.run_all(configs);
  ref.csv_hash = fnv1a64(ref.db.to_csv().to_string());
  ref.front = core::HwNasPipeline::front_of(ref.db, pipeline.options().dominance);
  return ref;
}

/// The sweep under test, repeated in fresh store directories until
/// \p seconds are spent (at least one timed sweep). A first, untimed sweep
/// warms the page cache and allocator; every sweep is checked. Returns the
/// timed sweeps' wall times.
std::vector<double> timed_sweeps(const Options& options,
                                 const core::HwNasPipeline& pipeline,
                                 const nas::SearchSpaceSpec& spec,
                                 const NasReference& ref, double seconds,
                                 Report& report) {
  std::vector<double> walls;
  std::int64_t mismatches = 0;
  auto end = Clock::time_point::max();
  for (int i = 0; i <= 1 || Clock::now() < end; ++i) {
    const std::string dir = options.workdir + "/store" + std::to_string(i);
    std::filesystem::remove_all(dir);
    const auto t0 = Clock::now();
    const core::SweepResult r = pipeline.run_store_sweep(spec, dir, 0);
    if (i == 0) {
      end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
    } else {
      walls.push_back(seconds_between(t0, Clock::now()));
    }
    std::filesystem::remove_all(dir);
    const bool same = fnv1a64(r.trials.to_csv().to_string()) == ref.csv_hash &&
                      r.front_indices == ref.front;
    report.attempted(1);
    if (!same) {
      ++mismatches;
      report.failed(1);
    }
  }
  report.check(mismatches == 0,
               "nas_sweep: store-assembled CSV hashes equal to "
               "Experiment::run_all and the Pareto fronts match");
  return walls;
}

Headline headline_of(const std::vector<double>& walls, std::size_t trials) {
  Headline h;
  std::vector<double> ms;
  for (double w : walls) ms.push_back(1000.0 * w);
  h.p50_ms = pct(ms, 0.50);
  h.p90_ms = pct(ms, 0.90);
  h.throughput_per_s = static_cast<double>(trials) / pct(walls, 0.50);
  return h;
}

}  // namespace

Headline nas_headline(const Options& options, double seconds, Report& report) {
  const nas::SearchSpaceSpec spec = sweep_spec(options);
  const core::HwNasPipeline pipeline(pipeline_options(options));
  const NasReference ref = reference_of(pipeline, spec.enumerate());
  return headline_of(timed_sweeps(options, pipeline, spec, ref, seconds, report),
                     ref.db.size());
}

void run_nas(const Options& options, Report& report) {
  // Set-up is nn-Meter predictor training; the shared instance the sweep
  // uses is one of the timed trainings.
  std::vector<double> train_s;
  const int trainings = options.smoke ? 1 : 3;
  for (int i = 0; i < trainings; ++i) {
    const auto t0 = Clock::now();
    if (i == 0) {
      latency::NnMeter::shared();
    } else {
      const latency::NnMeter meter{latency::PredictorTrainOptions{}};
    }
    train_s.push_back(seconds_between(t0, Clock::now()));
  }
  const nas::SearchSpaceSpec spec = sweep_spec(options);
  const core::HwNasPipeline pipeline(pipeline_options(options));
  const NasReference ref = reference_of(pipeline, spec.enumerate());
  const std::vector<double> walls =
      timed_sweeps(options, pipeline, spec, ref, options.seconds, report);
  const Headline h = headline_of(walls, ref.db.size());
  std::printf("nas_sweep walls (s):");
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  std::printf("nas_sweep: %zu lattice points, %zu trials, front %zu, %zu "
              "sweeps with %zu threads on %s | sweep p50 %.1f ms | %.1f "
              "trials/s\n",
              static_cast<std::size_t>(spec.size()), ref.db.size(),
              ref.front.size(), walls.size(), sweep_threads(),
              filesystem_type(options.workdir).c_str(), h.p50_ms,
              h.throughput_per_s);
  report_end_to_end(report, pct(train_s, 0.5), h);
}

void ledger_nas(const Options& options, Report& report) {
  const latency::NnMeter& meter = latency::NnMeter::shared();
  const nas::SearchSpaceSpec spec = sweep_spec(options);
  const std::vector<nas::TrialConfig> configs = spec.enumerate();
  const core::HwNasPipeline pipeline(pipeline_options(options));
  const NasReference ref = reference_of(pipeline, configs);
  const double n = static_cast<double>(configs.size());

  auto t0 = Clock::now();
  for (const auto& c : configs) nas::verify_candidate(c);
  report.metric("nas.verify_candidate_us", us_between(t0, Clock::now()) / n,
                "us");

  // A fresh Experiment, so the per-architecture hardware cache starts cold
  // exactly as it does inside a sweep.
  {
    const nas::Experiment experiment(pipeline.evaluator(), meter);
    t0 = Clock::now();
    for (const auto& c : configs) experiment.run_trial(c);
  }
  const double run_trial_us = us_between(t0, Clock::now()) / n;
  report.metric("nas.run_trial_us", run_trial_us, "us");

  {
    const std::size_t k = std::min<std::size_t>(configs.size(),
                                                options.smoke ? 4 : 64);
    std::vector<graph::ModelGraph> graphs;
    for (std::size_t i = 0; i < k; ++i) {
      graphs.push_back(graph::build_resnet_graph(
          configs[i * configs.size() / k].to_resnet_config()));
    }
    double sink = 0.0;
    t0 = Clock::now();
    for (const auto& g : graphs) sink += meter.predict_graph(g).mean_ms;
    report.metric("latency.predict_graph_us",
                  us_between(t0, Clock::now()) / static_cast<double>(k), "us");
    report.check(sink > 0.0, "latency predictions are positive");
  }

  // Store commits with the default durability, one record per trial.
  const std::string dir = options.workdir + "/store_ledger";
  std::filesystem::remove_all(dir);
  std::vector<double> append_us;
  {
    nas::TrialStoreOptions sopt;
    sopt.lattice_fingerprint = spec.fingerprint();
    nas::TrialStore store(dir, sopt);
    for (const auto& rec : ref.db.records()) {
      nas::JournalEntry e;
      e.record = rec;
      for (std::size_t f = 0; f < rec.fold_accuracies.size(); ++f) {
        e.fold_indices.push_back(static_cast<int>(f));
      }
      t0 = Clock::now();
      store.append(e);
      append_us.push_back(us_between(t0, Clock::now()));
    }
  }
  report.metric("nas.store.append_us.p50", pct(append_us, 0.50), "us");
  report.metric("nas.store.append_us.p99", pct(append_us, 0.99), "us");
  double assemble_s = 0.0;
  {
    nas::TrialStoreOptions sopt;
    sopt.lattice_fingerprint = spec.fingerprint();
    t0 = Clock::now();
    const nas::TrialStore store(dir, sopt);
    const nas::TrialDatabase db = store.assemble(configs);
    assemble_s = seconds_between(t0, Clock::now());
    report.check(fnv1a64(db.to_csv().to_string()) == ref.csv_hash,
                 "store round trip hashes equal to the serial reference");
  }
  std::filesystem::remove_all(dir);
  report.metric("nas.store.assemble_s", assemble_s, "s");

  const auto objectives = core::HwNasPipeline::objectives_of(ref.db);
  t0 = Clock::now();
  const auto front = pareto::non_dominated_indices(
      objectives, pipeline.options().dominance);
  const double front_ms = ms_between(t0, Clock::now());
  report.metric("pareto.front_ms", front_ms, "ms");

  {
    const nas::Experiment experiment(pipeline.evaluator(), meter);
    nas::SchedulerOptions sched;
    sched.threads = sweep_threads();
    nas::TrialScheduler scheduler(experiment, sched);
    t0 = Clock::now();
    const nas::TrialDatabase db = scheduler.run(configs);
    report.metric("nas.scheduler.nostore_trials_per_s",
                  static_cast<double>(db.size()) /
                      seconds_between(t0, Clock::now()),
                  "1/s");
  }

  // One traced sweep: its wall time against the parts above. Trials run
  // on sweep_threads() threads at once; commits, assembly and the front
  // run one at a time.
  const std::vector<double> walls =
      timed_sweeps(options, pipeline, spec, ref, 0.0, report);
  const double wall_us = 1e6 * walls.front();
  const double append_total = mean_of(append_us) * n;
  const double parts = run_trial_us * n / static_cast<double>(sweep_threads()) +
                       append_total + 1e6 * assemble_s + 1000.0 * front_ms;
  const double share = 100.0 * parts / wall_us;
  report.metric("nas.accounted_pct", share, "%");
  report.metric("nas.store.append_pct", 100.0 * append_total / wall_us, "%");
  char what[160];
  std::snprintf(what, sizeof(what),
                "nas.accounted_pct = %.1f%% within [%.0f, %.0f]", share,
                options.nas_accounted_min, options.nas_accounted_max);
  report.check(share >= options.nas_accounted_min &&
                   share <= options.nas_accounted_max,
               what);
  std::printf("nas ledger: %zu trials, sweep %.1f ms, append %.1f us mean "
              "(%.1f%% of the sweep), run_trial %.1f us, front %zu\n",
              ref.db.size(), wall_us / 1000.0, mean_of(append_us),
              100.0 * append_total / wall_us, run_trial_us, front.size());
}

}  // namespace repobench
