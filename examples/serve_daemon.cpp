/// serve_daemon — the deployed serving process: loads (or trains) a
/// drainage model, stands up a replicated Server behind the length-prefixed
/// wire protocol, and serves external clients over a POSIX socket until
/// interrupted. This is the front door the paper's resource-limited-device
/// story ends at: any process — the load generator, a field data pipeline,
/// an integration test — can submit chips and receive score rows without
/// linking dcnas.
///
/// Usage:
///   ./examples/serve_daemon --unix /tmp/dcnas.sock          # unix socket
///   ./examples/serve_daemon --port 7171                     # tcp loopback
///   ./examples/serve_daemon --model path/to/model.dcnx      # skip training
///   ./examples/serve_daemon --self-test 32                  # in-process
///       client sends 32 requests over the socket, verifies them against
///       direct execution, prints stats, and exits (used by docs/CI smoke).
/// Other knobs: --replicas N --workers N --max-batch N --max-delay-us N
///              --deadline-us N (self-test SLO tag) --epochs N

#include <atomic>
#include <csignal>
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
#include "dcnas/serve/wire.hpp"

using namespace dcnas;

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

/// Trains the small drainage classifier and saves it as a .dcnx artifact.
std::string train_artifact(int epochs, std::int64_t chip_size) {
  geodata::DatasetOptions dopt;
  dopt.scale = 1.0 / 128.0;
  dopt.chip_size = chip_size;
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
      graph::build_resnet_graph(cfg.to_resnet_config(), chip_size), model);
  exec.fold_batchnorm();
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_daemon.dcnx").string();
  graph::save_model(exec, path);
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string model_path = args.get("model", "");
  const std::string unix_path = args.get("unix", "");
  const auto tcp_port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const int self_test = static_cast<int>(args.get_int("self-test", 0));
  const auto deadline_us =
      static_cast<std::uint32_t>(args.get_int("deadline-us", 0));

  serve::ServerOptions sopt;
  sopt.num_replicas = static_cast<std::size_t>(args.get_int("replicas", 2));
  sopt.num_workers = static_cast<std::size_t>(args.get_int("workers", 2));
  sopt.batch.max_batch = args.get_int("max-batch", 8);
  sopt.batch.max_delay =
      std::chrono::microseconds(args.get_int("max-delay-us", 2000));

  constexpr std::int64_t kChipSize = 24;
  std::string path = model_path;
  bool temp_artifact = false;
  if (path.empty()) {
    std::printf("serve_daemon: no --model given, training a small one...\n");
    path = train_artifact(static_cast<int>(args.get_int("epochs", 1)),
                          kChipSize);
    temp_artifact = true;
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->load("drainage", path);
  if (temp_artifact) std::filesystem::remove(path);
  std::printf("serve_daemon: loaded 'drainage' v%d (%zu replica(s) x %zu "
              "worker(s), max_batch %lld)\n",
              registry->version("drainage"), sopt.num_replicas,
              sopt.num_workers, static_cast<long long>(sopt.batch.max_batch));

  serve::Server server(registry, sopt);

  serve::WireServerOptions wopt;
  if (!unix_path.empty()) {
    wopt.unix_path = unix_path;
  } else if (tcp_port != 0 || self_test == 0) {
    wopt.tcp_port = tcp_port;  // 0 = ephemeral
  } else {
    wopt.unix_path = (std::filesystem::temp_directory_path() /
                      "serve_daemon_selftest.sock").string();
  }
  serve::WireServer wire(server, wopt);
  if (!wopt.unix_path.empty()) {
    std::printf("serve_daemon: listening on unix socket %s\n",
                wopt.unix_path.c_str());
  } else {
    std::printf("serve_daemon: listening on 127.0.0.1:%u\n", wire.port());
  }

  if (self_test > 0) {
    // Drive the server as an external client would: over the socket, then
    // verify every row against direct execution of the registered model.
    const auto reference = registry->snapshot("drainage");
    serve::WireClient client =
        wopt.unix_path.empty()
            ? serve::WireClient::connect_tcp("127.0.0.1", wire.port())
            : serve::WireClient::connect_unix(wopt.unix_path);
    Rng rng(99);
    int mismatches = 0, rejected = 0;
    for (int i = 0; i < self_test; ++i) {
      const Tensor input = Tensor::rand_uniform(
          {1, 5, kChipSize, kChipSize}, rng, -1.0f, 1.0f);
      const serve::WireResponse r =
          client.infer_raw("drainage", input, deadline_us);
      if (r.status != serve::WireStatus::kOk) {
        ++rejected;
        std::printf("  request %d: %s (%s)\n", i,
                    serve::to_string(r.status), r.message.c_str());
        continue;
      }
      const Tensor want = reference.plan != nullptr
                              ? reference.plan->run(input)
                              : reference.exec->run(input);
      for (std::int64_t j = 0; j < want.numel(); ++j) {
        if (r.output[j] != want[j]) ++mismatches;
      }
    }
    std::printf("self-test: %d requests over the wire, %d rejected, %d logit "
                "mismatches vs direct execution %s\n",
                self_test, rejected, mismatches,
                mismatches == 0 ? "(bit-exact)" : "(BUG!)");
    std::printf("\n%s\n", server.metrics().to_text().c_str());
    wire.stop();
    server.shutdown();
    return mismatches == 0 ? 0 : 1;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("serve_daemon: serving (SIGINT to stop)\n");
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("\nserve_daemon: draining...\n%s\n",
              server.metrics().to_text().c_str());
  wire.stop();
  server.shutdown();
  return 0;
}
