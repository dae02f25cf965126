/// Observability walkthrough: run a miniature version of the full pipeline —
/// NAS trials (oracle accuracy + nn-Meter latency), one real training run,
/// and a batched serving session — with tracing enabled, then export the
/// timeline as Chrome-trace JSON and the metrics registries as JSON.
///
/// Load trace.json in ui.perfetto.dev (or chrome://tracing) to see nas/nn/
/// serve/graph/latency spans nested per thread. metrics.json holds the
/// process-wide registry ("process") plus the server's per-model registry
/// ("serving"). See OBSERVABILITY.md for the span taxonomy.
///
/// Usage: ./examples/dcnas_trace [--trials 8] [--requests 32]
///                               [--trace-out trace.json]
///                               [--metrics-out metrics.json]

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "dcnas/common/cli.hpp"
#include "dcnas/geodata/dataset.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/nas/evaluator.hpp"
#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/trainer.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/obs/trace_export.hpp"
#include "dcnas/serve/server.hpp"

using namespace dcnas;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::int64_t trials = args.get_int("trials", 8);
  const int requests = static_cast<int>(args.get_int("requests", 32));
  const std::string trace_out = args.get("trace-out", "trace.json");
  const std::string metrics_out = args.get("metrics-out", "metrics.json");

  obs::TraceRecorder::global().enable();
  std::printf("=== dcnas_trace: traced NAS -> train -> serve pipeline ===\n");

  // 1. NAS trials: oracle accuracy + hardware objectives through a small
  //    nn-Meter (fewer samples/trees than production — this is a demo).
  latency::PredictorTrainOptions popt;
  popt.samples_per_kind = 60;
  popt.forest.num_trees = 8;
  const latency::NnMeter meter(popt);
  nas::OracleOptions oopt;
  nas::OracleEvaluator evaluator(oopt);
  nas::Experiment experiment(evaluator, meter, {});
  std::vector<nas::TrialConfig> configs =
      nas::SearchSpace::enumerate_architectures(5, 8);
  if (static_cast<std::int64_t>(configs.size()) > trials) {
    configs.resize(static_cast<std::size_t>(trials));
  }
  const nas::TrialDatabase db = experiment.run_all(configs);
  std::printf("nas: %zu trials, best accuracy %.2f%%\n", db.size(),
              db.best_accuracy().accuracy);

  // 2. One real (tiny) training run so nn.fit/nn.epoch/nn.batch spans show
  //    actual SGD work rather than the oracle shortcut.
  geodata::DatasetOptions dopt;
  dopt.scale = 1.0 / 128.0;
  dopt.chip_size = 24;
  dopt.scene_size = 160;
  dopt.channels = 5;
  const auto ds = geodata::build_dataset(dopt);
  nas::TrialConfig cfg = nas::TrialConfig::baseline(5, 8);
  cfg.initial_output_feature = 32;
  Rng rng(7);
  nn::ConfigurableResNet model(cfg.to_resnet_config(), rng);
  nn::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = cfg.batch;
  nn::fit(model, ds.images, ds.labels, topt);
  const double acc = nn::evaluate_accuracy(model, ds.images, ds.labels);
  std::printf("nn: 1-epoch fit, train accuracy %.3f\n", acc);

  // 3. Batched serving session over the trained model: serve.admit /
  //    serve.batch.merge / serve.batch.execute / graph.execute spans.
  model.set_training(false);
  graph::GraphExecutor exec(
      graph::build_resnet_graph(cfg.to_resnet_config(), dopt.chip_size),
      model);
  exec.fold_batchnorm();
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->register_model("drainage", std::move(exec));
  serve::ServerOptions sopt;
  sopt.num_workers = 2;
  sopt.batch.max_batch = 8;
  sopt.batch.max_delay = std::chrono::microseconds(500);
  serve::Server server(registry, sopt);
  Rng request_rng(99);
  std::vector<std::future<Tensor>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    futures.push_back(server.submit(
        "drainage", Tensor::rand_uniform({1, 5, dopt.chip_size, dopt.chip_size},
                                         request_rng, -1.0f, 1.0f)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();
  std::printf("serve: %d requests answered\n%s", requests,
              server.metrics().to_text().c_str());

  // 4. Export: Chrome-trace timeline + both metrics registries.
  obs::TraceRecorder::global().disable();
  const auto events = obs::TraceRecorder::global().snapshot();
  obs::write_chrome_trace(trace_out, events);
  std::set<std::string> categories;
  for (const auto& e : events) categories.insert(e.category);
  std::string cats;
  for (const auto& c : categories) {
    if (!cats.empty()) cats += ", ";
    cats += c;
  }
  std::printf("\ntrace: %zu spans, %zu categories (%s), %zu threads, "
              "%llu dropped -> %s\n",
              events.size(), categories.size(), cats.c_str(),
              obs::TraceRecorder::global().thread_count(),
              static_cast<unsigned long long>(
                  obs::TraceRecorder::global().dropped_count()),
              trace_out.c_str());

  const std::string json = "{\"process\": " +
                           obs::MetricsRegistry::global().to_json() +
                           ", \"serving\": " +
                           server.metrics().to_json() + "}\n";
  std::FILE* f = std::fopen(metrics_out.c_str(), "w");
  DCNAS_CHECK(f != nullptr, "cannot open " + metrics_out);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("metrics: process + serving registries -> %s\n",
              metrics_out.c_str());
  std::printf("\nprocess metrics snapshot:\n%s",
              obs::MetricsRegistry::global().to_text().c_str());
  return 0;
}
