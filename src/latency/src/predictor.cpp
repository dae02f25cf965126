#include "dcnas/latency/predictor.hpp"

#include <cmath>

#include "dcnas/common/logging.hpp"
#include "dcnas/common/stats.hpp"
#include "dcnas/latency/features.hpp"
#include "dcnas/latency/simulator.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"

namespace dcnas::latency {

using graph::FusedKernel;
using graph::KernelKind;

namespace {

constexpr KernelKind kAllKinds[] = {
    KernelKind::kConvBnRelu, KernelKind::kConvBn,    KernelKind::kConvRelu,
    KernelKind::kConv,       KernelKind::kMaxPool,   KernelKind::kGlobalAvgPool,
    KernelKind::kAddRelu,    KernelKind::kAdd,       KernelKind::kRelu,
    KernelKind::kBatchNorm,  KernelKind::kLinear,
};

/// The kinds the quantized serving path runs in int8 — the conv family
/// (set_kernels_precision's scope). These get a second forest bank trained
/// on int8-simulated latencies.
constexpr KernelKind kConvKinds[] = {
    KernelKind::kConvBnRelu,
    KernelKind::kConvBn,
    KernelKind::kConvRelu,
    KernelKind::kConv,
};

}  // namespace

LatencyPredictor::LatencyPredictor(DeviceSpec device)
    : device_(std::move(device)) {}

double LatencyPredictor::prior_ms(const FusedKernel& k) const {
  // Nominal constants only: peak/bandwidth from the spec sheet and a fixed
  // 0.6 utilization guess. Everything the prior misses — the utilization
  // curve, lane quantization, Winograd lowering, VPU cliffs, jitter — is
  // the residual the per-kind forests are trained on. Int8 conv kernels use
  // the int8 roof when the device has one, mirroring the simulator.
  const auto flops = static_cast<double>(std::max<std::int64_t>(k.flops, 1));
  const bool int8 = k.precision == graph::Precision::kInt8 &&
                    device_.int8_peak_gops > 0.0;
  const double peak = int8 ? device_.int8_peak_gops : device_.peak_gflops;
  const double compute_ms = flops / (peak * 1e9 * 0.6) * 1e3;
  const double memory_ms =
      static_cast<double>(k.total_bytes()) / (device_.mem_bw_gbps * 1e9) * 1e3;
  return std::max(compute_ms, memory_ms) + device_.launch_overhead_ms;
}

void LatencyPredictor::train(const PredictorTrainOptions& options) {
  obs::Span span("latency", "latency.predictor.train");
  if (span.armed()) span.arg("device", device_.name);
  DCNAS_CHECK(options.samples_per_kind >= 20,
              "predictor training needs >= 20 samples per kernel kind");
  forests_.clear();
  int8_forests_.clear();
  const std::uint64_t device_seed =
      mix_seed(options.seed, std::hash<std::string>{}(device_.name));
  for (const KernelKind kind : kAllKinds) {
    Rng rng(mix_seed(device_seed, static_cast<std::uint64_t>(kind)));
    Dataset2d data;
    data.x.reserve(static_cast<std::size_t>(options.samples_per_kind));
    data.y.reserve(static_cast<std::size_t>(options.samples_per_kind));
    for (int i = 0; i < options.samples_per_kind; ++i) {
      const FusedKernel k = sample_kernel(kind, rng);
      data.x.push_back(kernel_features(k));
      // Residual log target: relative (±10%) accuracy is what matters
      // downstream, and the roofline prior bounds the regression range.
      data.y.push_back(std::log(simulate_kernel_ms(device_, k) / prior_ms(k)));
    }
    ForestOptions fo = options.forest;
    fo.seed = mix_seed(device_seed, 0x0f0e0d0cULL + static_cast<int>(kind));
    RandomForest forest;
    forest.fit(data, fo);
    forests_.emplace(kind, std::move(forest));
  }
  // Second bank for quantized convs: the int8 residual differs from fp32
  // (no Winograd, different roof, perturbed jitter), so reusing the fp32
  // forest would systematically mispredict. Devices without an int8 fast
  // path skip this — their quantized kernels simulate identically to fp32
  // modulo weight traffic, which the shared features already capture.
  if (device_.int8_peak_gops > 0.0) {
    for (const KernelKind kind : kConvKinds) {
      Rng rng(mix_seed(device_seed ^ 0x51b8u, static_cast<std::uint64_t>(kind)));
      Dataset2d data;
      data.x.reserve(static_cast<std::size_t>(options.samples_per_kind));
      data.y.reserve(static_cast<std::size_t>(options.samples_per_kind));
      for (int i = 0; i < options.samples_per_kind; ++i) {
        FusedKernel k = sample_kernel(kind, rng);
        k.precision = graph::Precision::kInt8;
        data.x.push_back(kernel_features(k));
        data.y.push_back(
            std::log(simulate_kernel_ms(device_, k) / prior_ms(k)));
      }
      ForestOptions fo = options.forest;
      fo.seed =
          mix_seed(device_seed, 0x8b1d0c51ULL + static_cast<int>(kind));
      RandomForest forest;
      forest.fit(data, fo);
      int8_forests_.emplace(kind, std::move(forest));
    }
  }
  static obs::Counter& trained_count =
      obs::MetricsRegistry::global().counter("latency.predictor.trained.count");
  trained_count.add(1);
  DCNAS_LOG_DEBUG << "trained latency predictor for " << device_.name;
}

LatencyPredictor LatencyPredictor::from_forests(
    DeviceSpec device, std::map<graph::KernelKind, RandomForest> forests,
    std::map<graph::KernelKind, RandomForest> int8_forests) {
  DCNAS_CHECK(!forests.empty(), "from_forests requires trained forests");
  LatencyPredictor p(std::move(device));
  p.forests_ = std::move(forests);
  p.int8_forests_ = std::move(int8_forests);
  return p;
}

double LatencyPredictor::predict_kernel_ms(const FusedKernel& kernel) const {
  DCNAS_CHECK(trained(), "LatencyPredictor::train must be called first");
  if (kernel.precision == graph::Precision::kInt8) {
    const auto it8 = int8_forests_.find(kernel.kind);
    if (it8 != int8_forests_.end()) {
      return std::exp(it8->second.predict(kernel_features(kernel))) *
             prior_ms(kernel);
    }
    // Fall through: no int8 forest for this kind (non-conv, a device with
    // no int8 fast path, or a DCLP v1 file) — the fp32 forest is the best
    // available residual model and the prior is still precision-aware.
  }
  const auto it = forests_.find(kernel.kind);
  DCNAS_CHECK(it != forests_.end(), "no forest for kernel kind");
  return std::exp(it->second.predict(kernel_features(kernel))) *
         prior_ms(kernel);
}

double LatencyPredictor::predict_model_ms(
    const std::vector<FusedKernel>& kernels) const {
  obs::Span span("latency", "latency.model.predict");
  if (span.armed()) {
    span.arg("device", device_.name);
    span.arg("kernels", static_cast<std::int64_t>(kernels.size()));
  }
  static obs::Counter& predicted =
      obs::MetricsRegistry::global().counter("latency.model.predicted.count");
  predicted.add(1);
  double total = 0.0;
  for (const auto& k : kernels) total += predict_kernel_ms(k);
  return total;
}

LatencyPredictor::Accuracy LatencyPredictor::evaluate_kernel_level(
    int samples_per_kind, std::uint64_t seed) const {
  DCNAS_CHECK(trained(), "evaluate on an untrained predictor");
  std::vector<double> truth, pred;
  const std::uint64_t device_seed =
      mix_seed(seed, std::hash<std::string>{}(device_.name) ^ 0xabcdULL);
  for (const KernelKind kind : kAllKinds) {
    Rng rng(mix_seed(device_seed, static_cast<std::uint64_t>(kind) + 77));
    for (int i = 0; i < samples_per_kind; ++i) {
      const FusedKernel k = sample_kernel(kind, rng);
      truth.push_back(simulate_kernel_ms(device_, k));
      pred.push_back(predict_kernel_ms(k));
    }
  }
  Accuracy acc;
  acc.num_samples = truth.size();
  acc.hit_rate_10pct = within_relative_tolerance(truth, pred, 0.10);
  acc.rmspe = rmspe(truth, pred);
  return acc;
}

NnMeter::NnMeter(const PredictorTrainOptions& options) {
  predictors_.reserve(edge_device_zoo().size());
  for (const auto& device : edge_device_zoo()) {
    LatencyPredictor p(device);
    p.train(options);
    predictors_.push_back(std::move(p));
  }
}

const NnMeter& NnMeter::shared() {
  static const NnMeter instance{PredictorTrainOptions{}};
  return instance;
}

ModelLatencyPrediction NnMeter::predict_kernels(
    const std::vector<FusedKernel>& kernels) const {
  obs::Span span("latency", "latency.meter.predict");
  if (span.armed()) {
    span.arg("kernels", static_cast<std::int64_t>(kernels.size()));
  }
  ModelLatencyPrediction out;
  std::vector<double> values;
  for (const auto& p : predictors_) {
    const double ms = p.predict_model_ms(kernels);
    out.per_device_ms.emplace_back(p.device().name, ms);
    values.push_back(ms);
  }
  out.mean_ms = mean(values);
  out.std_ms = sample_stddev(values);
  return out;
}

ModelLatencyPrediction NnMeter::predict_graph(
    const graph::ModelGraph& graph) const {
  return predict_kernels(graph::fuse_graph(graph));
}

const LatencyPredictor& NnMeter::predictor(
    const std::string& device_name) const {
  for (const auto& p : predictors_) {
    if (p.device().name == device_name) return p;
  }
  throw InvalidArgument("unknown predictor: " + device_name);
}

}  // namespace dcnas::latency
