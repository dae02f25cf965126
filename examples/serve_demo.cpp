/// Serving walkthrough: train a small drainage classifier, deploy it into a
/// ModelRegistry as a .dcnx artifact, and put a concurrent inference Server
/// in front of it — dynamic batching, multi-threaded submitters, per-model
/// metrics, hot-swap, and a graceful drain. This is the runtime the
/// hardware-aware NAS objectives ultimately answer to: measured serving
/// latency under real traffic, not just predicted kernel latency.
///
/// Usage: ./examples/serve_demo [--epochs 2] [--requests 64] [--workers 2]
///                              [--max-batch 8] [--max-delay-us 2000]

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "dcnas/common/cli.hpp"
#include "dcnas/geodata/dataset.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/trainer.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/serve/server.hpp"

using namespace dcnas;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int epochs = static_cast<int>(args.get_int("epochs", 2));
  const int requests = static_cast<int>(args.get_int("requests", 64));
  serve::ServerOptions sopt;
  sopt.num_workers = static_cast<std::size_t>(args.get_int("workers", 2));
  sopt.batch.max_batch = args.get_int("max-batch", 8);
  sopt.batch.max_delay =
      std::chrono::microseconds(args.get_int("max-delay-us", 2000));

  // 1. Train a small model and export the deployable artifact.
  std::printf("=== serve_demo: train -> registry -> batched serving ===\n");
  geodata::DatasetOptions dopt;
  dopt.scale = 1.0 / 128.0;
  dopt.chip_size = 24;
  dopt.scene_size = 160;
  dopt.channels = 5;
  const auto ds = geodata::build_dataset(dopt);

  nas::TrialConfig cfg = nas::TrialConfig::baseline(5, 8);
  cfg.initial_output_feature = 32;
  cfg.kernel_size = 3;
  cfg.padding = 1;
  Rng rng(11);
  nn::ConfigurableResNet model(cfg.to_resnet_config(), rng);
  nn::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = cfg.batch;
  topt.lr = 0.02;
  nn::fit(model, ds.images, ds.labels, topt);
  model.set_training(false);

  graph::GraphExecutor exec(
      graph::build_resnet_graph(cfg.to_resnet_config(), dopt.chip_size),
      model);
  exec.fold_batchnorm();
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_demo.dcnx").string();
  graph::save_model(exec, path);

  // 2. Registry: load the artifact like a model server would at startup.
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->load("drainage", path);
  std::printf("registry: loaded 'drainage' v%d from %s\n",
              registry->version("drainage"), path.c_str());

  // 3. Serve concurrent traffic from multiple submitter threads.
  serve::Server server(registry, sopt);
  const auto reference = registry->get("drainage");
  std::vector<Tensor> inputs;
  Rng request_rng(99);
  for (int i = 0; i < requests; ++i) {
    inputs.push_back(Tensor::rand_uniform({1, 5, dopt.chip_size,
                                           dopt.chip_size},
                                          request_rng, -1.0f, 1.0f));
  }
  std::vector<std::future<Tensor>> futures(
      static_cast<std::size_t>(requests));
  const int submitters = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < requests; i += submitters) {
        futures[static_cast<std::size_t>(i)] =
            server.submit("drainage", inputs[static_cast<std::size_t>(i)]);
      }
    });
  }
  for (auto& th : threads) th.join();

  int mismatches = 0;
  for (int i = 0; i < requests; ++i) {
    const Tensor got = futures[static_cast<std::size_t>(i)].get();
    const Tensor want = reference->run(inputs[static_cast<std::size_t>(i)]);
    for (std::int64_t j = 0; j < want.numel(); ++j) {
      if (got[j] != want[j]) ++mismatches;
    }
  }
  std::printf("%d requests from %d threads: %d logit mismatches vs direct "
              "execution %s\n", requests, submitters, mismatches,
              mismatches == 0 ? "(bit-exact)" : "(BUG!)");

  // 4. Hot-swap to the unfolded executor (same weights, pre-fold compute
  // path) without stopping the server.
  graph::GraphExecutor unfolded(
      graph::build_resnet_graph(cfg.to_resnet_config(), dopt.chip_size),
      model);
  registry->register_model("drainage", std::move(unfolded));
  const Tensor swapped =
      server.submit("drainage", inputs.front()).get();
  std::printf("hot-swapped to v%d mid-serving; first logit now %.4f\n",
              registry->version("drainage"), swapped[0]);

  // 5. Drain and report.
  server.shutdown();
  std::printf("\nserving metrics after graceful drain:\n%s\n",
              server.metrics().to_text().c_str());
  std::printf("process metrics:\n%s\n",
              obs::MetricsRegistry::global().to_text().c_str());
  std::filesystem::remove(path);
  return 0;
}
