#pragma once
/// Shared fixture helpers for the serve tests: a small trained-ish model
/// (random init, BN statistics settled by a few training-mode forwards)
/// exported to a GraphExecutor at 24px, matching the graph-layer tests;
/// and readers for a Server's per-model metric counters.

#include <memory>
#include <string_view>

#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/executor.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/serve/replica.hpp"

namespace dcnas::serve::testing {

inline constexpr std::int64_t kChannels = 5;
inline constexpr std::int64_t kImageSize = 24;

/// Builds a ready executor for the small test architecture; \p seed varies
/// the weights so distinct models produce distinct outputs.
inline graph::GraphExecutor make_executor(unsigned seed = 21) {
  nn::ResNetConfig config = nn::ResNetConfig::baseline(kChannels);
  config.init_width = 32;
  config.conv1_kernel = 3;
  config.conv1_padding = 1;
  Rng rng(seed);
  nn::ConfigurableResNet model(config, rng);
  for (int i = 0; i < 2; ++i) {
    const Tensor x = Tensor::rand_uniform({4, kChannels, kImageSize, kImageSize},
                                          rng, -1.0f, 1.0f);
    model.forward(x);
  }
  model.set_training(false);
  return graph::GraphExecutor(graph::build_resnet_graph(config, kImageSize),
                              model);
}

/// One random single-image input, shaped (1, C, H, W).
inline Tensor make_image(Rng& rng) {
  return Tensor::rand_uniform({1, kChannels, kImageSize, kImageSize}, rng,
                              -1.0f, 1.0f);
}

/// Value of the counter `<family>{model=<model>}`; 0 when the model never
/// registered that family.
inline std::int64_t model_counter(const obs::MetricsRegistry& metrics,
                                  std::string_view family,
                                  std::string_view model) {
  const obs::Counter* c = metrics.find_counter(model_metric(family, model));
  return c == nullptr ? 0 : c->value();
}

inline std::int64_t request_count(const obs::MetricsRegistry& metrics,
                                  std::string_view model) {
  return model_counter(metrics, "serve.request.count", model);
}

inline std::int64_t error_count(const obs::MetricsRegistry& metrics,
                                std::string_view model) {
  return model_counter(metrics, "serve.error.count", model);
}

}  // namespace dcnas::serve::testing
