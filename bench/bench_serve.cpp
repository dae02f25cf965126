/// bench_serve — measured serving performance of the deployed DCNX artifact.
///
/// Reproduction payload: trains/saves a small drainage model, then drives
/// the src/serve subsystem (registry -> dynamic batcher -> workers, serving
/// the compiled plan) with 64 requests per batching policy, sweeping
/// max_batch 1..32. A direct-run section measures per-image latency of the
/// compiled plan against the op-by-op GraphExecutor it was compiled from
/// at batch 1 and batch 8, and a steady-state section asserts the plan
/// performs zero arena allocations after warmup ("plan_alloc_ok" — the
/// serve-bench CI gate).
/// Emits a table of throughput (img/s) and p50/p95/p99 end-to-end latency
/// per policy, plus BENCH_serve.json for downstream tooling. The
/// nn-Meter-style predicted latency for the same architecture is printed
/// alongside, so the paper's analytic latency objective can be compared
/// against a real runtime.

#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "dcnas/geodata/dataset.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/latency/predictor.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/trainer.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/plan/executor.hpp"
#include "dcnas/serve/server.hpp"

namespace {

using namespace dcnas;

constexpr std::int64_t kChipSize = 24;
constexpr int kRequestsPerPolicy = 64;
constexpr std::size_t kWorkers = 2;

struct ServeBenchContext {
  nas::TrialConfig cfg;
  std::shared_ptr<serve::ModelRegistry> registry;
  std::shared_ptr<const graph::GraphExecutor> exec;
  std::shared_ptr<const plan::PlanExecutor> plan;
  std::vector<Tensor> inputs;
};

/// Trains the small model once, registers it, and pre-generates inputs.
ServeBenchContext& ctx() {
  static ServeBenchContext c = [] {
    ServeBenchContext out;
    geodata::DatasetOptions dopt;
    dopt.scale = 1.0 / 128.0;
    dopt.chip_size = kChipSize;
    dopt.scene_size = 160;
    dopt.channels = 5;
    const auto ds = geodata::build_dataset(dopt);

    out.cfg = nas::TrialConfig::baseline(5, 8);
    out.cfg.initial_output_feature = 32;
    out.cfg.kernel_size = 3;
    out.cfg.padding = 1;
    Rng rng(17);
    nn::ConfigurableResNet model(out.cfg.to_resnet_config(), rng);
    nn::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = out.cfg.batch;
    topt.lr = 0.02;
    nn::fit(model, ds.images, ds.labels, topt);
    model.set_training(false);

    graph::GraphExecutor exec(
        graph::build_resnet_graph(out.cfg.to_resnet_config(), kChipSize),
        model);
    exec.fold_batchnorm();
    const std::string path =
        (std::filesystem::temp_directory_path() / "bench_serve.dcnx").string();
    graph::save_model(exec, path);

    out.registry = std::make_shared<serve::ModelRegistry>();
    out.registry->load("drainage", path);
    std::filesystem::remove(path);
    const serve::ModelSnapshot snap = out.registry->snapshot("drainage");
    out.exec = snap.exec;
    out.plan = snap.plan;

    Rng request_rng(4242);
    for (int i = 0; i < kRequestsPerPolicy; ++i) {
      out.inputs.push_back(Tensor::rand_uniform(
          {1, 5, kChipSize, kChipSize}, request_rng, -1.0f, 1.0f));
    }
    return out;
  }();
  return c;
}

struct PolicyResult {
  std::int64_t max_batch = 0;
  double throughput = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  std::int64_t errors = 0;
};

PolicyResult run_policy(std::int64_t max_batch) {
  ServeBenchContext& c = ctx();
  serve::ServerOptions sopt;
  sopt.num_workers = kWorkers;
  sopt.batch.max_batch = max_batch;
  sopt.batch.max_delay = std::chrono::microseconds(2000);
  serve::Server server(c.registry, sopt);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> futures;
  futures.reserve(c.inputs.size());
  for (const Tensor& input : c.inputs) {
    futures.push_back(server.submit("drainage", input));
  }
  for (auto& f : futures) f.get();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  PolicyResult r;
  r.max_batch = max_batch;
  r.throughput = static_cast<double>(c.inputs.size()) / seconds;
  const obs::MetricsRegistry& metrics = server.metrics();
  if (const obs::Summary* latency = metrics.find_summary(
          serve::model_metric("serve.request.latency_ms", "drainage"));
      latency != nullptr && latency->count() > 0) {
    r.p50_ms = latency->quantile(0.50);
    r.p95_ms = latency->quantile(0.95);
    r.p99_ms = latency->quantile(0.99);
    r.mean_ms = latency->sum() / static_cast<double>(latency->count());
  }
  if (const obs::Counter* errors = metrics.find_counter(
          serve::model_metric("serve.error.count", "drainage"))) {
    r.errors = errors->value();
  }
  server.shutdown();
  return r;
}

/// Direct (no batcher) per-image latency of the graph and the plan at one
/// batch size: mean over \p iters timed runs after a small warmup.
struct DirectResult {
  std::int64_t batch = 0;
  double graph_ms_per_img = 0.0;
  double plan_ms_per_img = 0.0;
  double plan_speedup = 0.0;
};

DirectResult run_direct(std::int64_t batch, int iters = 30) {
  ServeBenchContext& c = ctx();
  Rng rng(7 + static_cast<unsigned>(batch));
  const Tensor input = Tensor::rand_uniform({batch, 5, kChipSize, kChipSize},
                                            rng, -1.0f, 1.0f);
  auto time_path = [&](auto&& run) {
    for (int i = 0; i < 3; ++i) run(input);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) run(input);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return ms / static_cast<double>(iters) / static_cast<double>(batch);
  };
  DirectResult r;
  r.batch = batch;
  r.graph_ms_per_img = time_path([&](const Tensor& x) { c.exec->run(x); });
  r.plan_ms_per_img = time_path([&](const Tensor& x) { c.plan->run(x); });
  r.plan_speedup = r.graph_ms_per_img / r.plan_ms_per_img;
  return r;
}

/// The zero-allocation gate: after warming the plan executor's arena pool
/// across every batch size and concurrency level the measurement phase
/// uses, `plan.exec.allocs` must not move. Returns the steady-state delta
/// (0 on pass) — CI fails the serve-bench job when "plan_alloc_ok" is
/// false.
std::int64_t steady_state_allocs() {
  ServeBenchContext& c = ctx();
  auto& allocs = obs::MetricsRegistry::global().counter("plan.exec.allocs");
  Rng rng(99);
  const Tensor big =
      Tensor::rand_uniform({32, 5, kChipSize, kChipSize}, rng, -1.0f, 1.0f);
  const Tensor small =
      Tensor::rand_uniform({1, 5, kChipSize, kChipSize}, rng, -1.0f, 1.0f);

  auto burst = [&] {
    serve::ServerOptions sopt;
    sopt.num_workers = kWorkers;
    sopt.batch.max_batch = 8;
    sopt.batch.max_delay = std::chrono::microseconds(500);
    serve::Server server(c.registry, sopt);
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(server.submit(
          "drainage", c.inputs[static_cast<std::size_t>(i)]));
    }
    for (auto& f : futures) f.get();
    server.shutdown();
  };

  // Warmup: largest direct batch first (so pooled arenas have enough
  // capacity for everything below), then two concurrent bursts (so the
  // pool holds one arena per worker).
  c.plan->run(big);
  burst();
  burst();
  c.plan->run(big);

  const std::int64_t before = allocs.value();
  for (int i = 0; i < 5; ++i) {
    c.plan->run(big);
    c.plan->run(small);
  }
  burst();
  burst();
  return allocs.value() - before;
}

void write_json(const std::vector<PolicyResult>& results,
                const std::vector<DirectResult>& direct,
                std::int64_t steady_allocs, double pred_mean_ms,
                double pred_std_ms) {
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (!f) {
    std::printf("WARNING: cannot write BENCH_serve.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"model\": \"drainage-24px-fold\",\n");
  std::fprintf(f, "  \"workers\": %zu,\n", kWorkers);
  std::fprintf(f, "  \"requests_per_policy\": %d,\n", kRequestsPerPolicy);
  std::fprintf(f,
               "  \"predicted_latency_224_ms\": {\"mean\": %.4f, \"std\": "
               "%.4f},\n",
               pred_mean_ms, pred_std_ms);
  std::fprintf(f, "  \"direct_run\": [\n");
  for (std::size_t i = 0; i < direct.size(); ++i) {
    const DirectResult& d = direct[i];
    std::fprintf(f,
                 "    {\"batch\": %lld, \"graph_ms_per_img\": %.4f, "
                 "\"plan_ms_per_img\": %.4f, \"plan_speedup\": %.3f}%s\n",
                 static_cast<long long>(d.batch), d.graph_ms_per_img,
                 d.plan_ms_per_img, d.plan_speedup,
                 i + 1 < direct.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"plan_allocs_steady\": %lld,\n",
               static_cast<long long>(steady_allocs));
  std::fprintf(f, "  \"plan_alloc_ok\": %s,\n",
               steady_allocs == 0 ? "true" : "false");
  std::fprintf(f, "  \"policies\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    std::fprintf(f,
                 "    {\"max_batch\": %lld, "
                 "\"throughput_img_per_s\": %.2f, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"mean_ms\": %.3f, \"errors\": %lld}%s\n",
                 static_cast<long long>(r.max_batch), r.throughput,
                 r.p50_ms, r.p95_ms, r.p99_ms,
                 r.mean_ms, static_cast<long long>(r.errors),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serve.json\n");
}

/// Dumps the process-wide metrics registry (admission/flush counters, batch
/// size histogram, profiler phases) accumulated over the whole sweep.
void write_metrics_snapshot() {
  const std::string json = obs::MetricsRegistry::global().to_json();
  std::FILE* f = std::fopen("BENCH_serve_metrics.json", "w");
  if (!f) {
    std::printf("WARNING: cannot write BENCH_serve_metrics.json\n");
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote BENCH_serve_metrics.json\n");
}

void print_report() {
  std::printf("bench_serve: dynamic-batching throughput/latency sweep\n");
  std::printf("(%d requests per policy, %zu workers, 2ms max queue delay)\n\n",
              kRequestsPerPolicy, kWorkers);
  ServeBenchContext& c = ctx();

  std::vector<PolicyResult> results;
  std::printf(
      "max_batch  throughput(img/s)   p50ms   p95ms   p99ms  errors\n");
  for (const std::int64_t max_batch : {1, 2, 4, 8, 16, 32}) {
    const PolicyResult r = run_policy(max_batch);
    std::printf("%9lld %18.1f %7.2f %7.2f %7.2f %7lld\n",
                static_cast<long long>(r.max_batch), r.throughput,
                r.p50_ms, r.p95_ms, r.p99_ms,
                static_cast<long long>(r.errors));
    results.push_back(r);
  }

  std::printf("\ndirect run (no batcher), per-image latency:\n");
  std::printf("batch  graph(ms/img)  plan(ms/img)  speedup\n");
  std::vector<DirectResult> direct;
  for (const std::int64_t batch : {1, 8}) {
    const DirectResult d = run_direct(batch);
    std::printf("%5lld %14.4f %13.4f %8.3fx\n",
                static_cast<long long>(d.batch), d.graph_ms_per_img,
                d.plan_ms_per_img, d.plan_speedup);
    direct.push_back(d);
  }

  const std::int64_t steady_allocs = steady_state_allocs();
  std::printf("\nsteady-state plan arena allocations: %lld (%s)\n",
              static_cast<long long>(steady_allocs),
              steady_allocs == 0 ? "ok" : "FAIL: hot path allocated");

  const auto pred = latency::NnMeter::shared().predict_graph(
      graph::build_resnet_graph(c.cfg.to_resnet_config()));
  std::printf("\npredicted deployment latency (224px, 4 edge devices): "
              "mean %.2f ms, std %.2f ms\n", pred.mean_ms, pred.std_ms);
  std::printf("(measured numbers above are 24px end-to-end serving latency "
              "on this host — the runtime the predictor's ranking claims "
              "are checked against)\n");
  write_json(results, direct, steady_allocs, pred.mean_ms, pred.std_ms);
  write_metrics_snapshot();
}

void BM_DirectRunBatch(benchmark::State& state) {
  ServeBenchContext& c = ctx();
  const std::int64_t batch = state.range(0);
  Rng rng(7);
  const Tensor input = Tensor::rand_uniform({batch, 5, kChipSize, kChipSize},
                                            rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.exec->run(input));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DirectRunBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_DirectRunPlanBatch(benchmark::State& state) {
  ServeBenchContext& c = ctx();
  const std::int64_t batch = state.range(0);
  Rng rng(7);
  const Tensor input = Tensor::rand_uniform({batch, 5, kChipSize, kChipSize},
                                            rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.plan->run(input));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DirectRunPlanBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_ServeRoundTripUnbatched(benchmark::State& state) {
  ServeBenchContext& c = ctx();
  serve::ServerOptions sopt;
  sopt.num_workers = kWorkers;
  sopt.batch.max_batch = 1;
  sopt.batch.max_delay = std::chrono::microseconds(0);
  serve::Server server(c.registry, sopt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.submit("drainage", c.inputs.front()).get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRoundTripUnbatched);

void BM_ServeBurstBatch8(benchmark::State& state) {
  ServeBenchContext& c = ctx();
  serve::ServerOptions sopt;
  sopt.num_workers = kWorkers;
  sopt.batch.max_batch = 8;
  sopt.batch.max_delay = std::chrono::microseconds(500);
  serve::Server server(c.registry, sopt);
  for (auto _ : state) {
    std::vector<std::future<Tensor>> futures;
    futures.reserve(16);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          server.submit("drainage",
                        c.inputs[static_cast<std::size_t>(i)]));
    }
    for (auto& f : futures) f.get();
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ServeBurstBatch8);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, print_report);
}
