/// The paper, end to end: synthesize the four study regions' data, run the
/// hardware-aware NAS sweep, predict latency on the four edge devices,
/// and extract the Pareto front — printing every table/figure on the way.
///
/// Usage: ./examples/drainage_pipeline [--trials N] [--out-dir DIR]
///                                     [--threads N] [--prune]
///                                     [--store DIR] [--workers N]
///                                     [--wide] [--smoke]
///   --trials N   subsample the 1,728-point lattice (default: full sweep)
///   --out-dir    where to write fig3_scatter.csv / fig4_radar.csv /
///                trials.csv (default: current directory)
///   --threads N  trial-scheduler threads (default and 0: all cores); the
///                trials.csv is byte-identical at every thread count
///   --prune      median-stop fold pruning (saves fold evaluations but
///                drops pruned trials from the artifacts; off for paper
///                reproduction)
///   --store DIR  memory-mapped trial store directory: sweeps stream
///                through the store instead of holding everything in
///                memory; re-running after an interrupt skips the trials
///                already committed (crash/resume safe, multi-process
///                capable)
///   --workers N  with --store: fork N worker processes sharing the store
///                (default 1 = single-process streamed run)
///   --wide       with --store: sweep the 138,240-point wide lattice
///                (SearchSpaceSpec::wide) instead of the paper's 1,728
///   --smoke      with --wide: deterministic 1-in-128 stride subsample of
///                the wide lattice (950 buildable trials — the CI-sized
///                sweep), run in one process (rejects --workers)

#include <cstdio>
#include <filesystem>
#include <string>

#include "dcnas/common/cli.hpp"
#include "dcnas/common/rng.hpp"
#include "dcnas/core/report.hpp"
#include "dcnas/obs/metrics.hpp"

using namespace dcnas;

namespace {

/// --smoke thins every option list is *not* what we want (it would change
/// the lattice identity); instead the smoke sweep keeps the wide spec and
/// strides over it, so the store fingerprint — and any resumed records —
/// stay valid for the full sweep later.
std::vector<nas::TrialConfig> stride_sample(const nas::SearchSpaceSpec& spec,
                                            std::int64_t stride) {
  std::vector<nas::TrialConfig> out;
  for (std::int64_t i = 0; i < spec.size(); i += stride) {
    nas::TrialConfig c = spec.at(i);
    if (!c.geometry_ok()) continue;  // LatticeStream applies the same skip
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("journal")) {
    // CliArgs accepts any key, so without this a resume flag from older
    // scripts would silently run a sweep that cannot resume.
    std::fprintf(stderr,
                 "drainage_pipeline: --journal is no longer supported; use "
                 "--store DIR to make the sweep resumable\n");
    return 2;
  }
  const long long trials = args.get_int("trials", 0);
  const std::string out_dir = args.get(std::string("out-dir"), ".");
  const long long threads = args.get_int("threads", 0);
  const bool prune = args.get_flag("prune");
  const std::string store_dir = args.get(std::string("store"), "");
  const long long workers = args.get_int("workers", 1);
  const bool wide = args.get_flag("wide");
  const bool smoke = args.get_flag("smoke");
  if (smoke && args.has("workers")) {
    // The smoke stride runs in one process; accepting --workers would
    // silently ignore it.
    std::fprintf(stderr,
                 "drainage_pipeline: --smoke runs in one process and cannot "
                 "be combined with --workers\n");
    return 2;
  }

  std::printf("=== dcnas drainage-crossing HW-NAS pipeline ===\n\n");
  std::printf("%s\n", core::table1_text().c_str());
  std::printf("%s\n", core::fig1_text().c_str());
  std::printf("%s\n", core::fig2_text().c_str());

  std::printf("training nn-Meter predictors (4 devices)...\n");
  std::printf("%s\n", core::table2_text(latency::NnMeter::shared()).c_str());

  core::PipelineOptions options;
  options.scheduler.threads =
      threads > 0 ? static_cast<std::size_t>(threads) : 0;
  options.scheduler.pruner.enabled = prune;
  options.scheduler.log_progress = true;
  core::HwNasPipeline pipeline(options);

  const nas::SearchSpaceSpec spec =
      wide ? nas::SearchSpaceSpec::wide() : nas::SearchSpaceSpec::paper();
  core::SweepResult sweep;
  if (!store_dir.empty() && smoke) {
    // CI-sized wide-lattice pass: stride subsample, one process, results
    // committed to (and resumable from) the same store as the full sweep.
    options.scheduler.store_dir = store_dir;
    options.scheduler.store_fingerprint = spec.fingerprint();
    core::HwNasPipeline smoke_pipeline(options);
    const auto configs = stride_sample(spec, 128);
    std::printf("running a %zu-trial smoke stride of the %lld-point lattice "
                "through store %s...\n\n",
                configs.size(), static_cast<long long>(spec.size()),
                store_dir.c_str());
    sweep = smoke_pipeline.run_sweep(configs);
  } else if (!store_dir.empty()) {
    std::printf("running the %lld-point lattice through store %s with %lld "
                "worker process(es)...\n\n",
                static_cast<long long>(spec.size()), store_dir.c_str(),
                workers);
    sweep = pipeline.run_store_sweep(spec, store_dir,
                                     static_cast<int>(workers));
  } else {
    std::vector<nas::TrialConfig> configs = spec.enumerate();
    if (trials > 0 && trials < static_cast<long long>(configs.size())) {
      Rng rng(7);
      rng.shuffle(configs);
      configs.resize(static_cast<std::size_t>(trials));
      std::printf("running a %lld-trial subsample of the lattice...\n\n",
                  trials);
    } else {
      std::printf("running the full %zu-trial lattice...\n\n", configs.size());
    }
    sweep = pipeline.run_sweep(configs);
  }

  std::printf("%s\n", core::table3_text(sweep).c_str());
  std::printf("%s\n", core::table4_text(sweep).c_str());
  std::printf("%s\n", core::fig3_text(sweep).c_str());
  std::printf("%s\n", core::fig4_text(sweep).c_str());

  const auto baselines = pipeline.run_baselines();
  std::printf("%s\n", core::table5_text(baselines).c_str());

  // Persist artifacts.
  std::filesystem::create_directories(out_dir);
  sweep.trials.save(out_dir + "/trials.csv");
  pareto::scatter_csv(sweep.objectives, sweep.front_indices)
      .save(out_dir + "/fig3_scatter.csv");
  pareto::radar_csv(core::fig4_rows(sweep)).save(out_dir + "/fig4_radar.csv");
  std::printf("artifacts written: %s/trials.csv, fig3_scatter.csv, "
              "fig4_radar.csv\n",
              out_dir.c_str());
  std::printf("\nprocess metrics (the resource accounting §5 suggests):\n%s",
              obs::MetricsRegistry::global().to_text().c_str());
  return 0;
}
