#include "dcnas/serve/server.hpp"

#include "dcnas/common/error.hpp"

namespace dcnas::serve {

Server::Server(std::shared_ptr<ModelRegistry> registry, ServerOptions options)
    : registry_(std::move(registry)),
      group_(registry_, options.num_replicas, options.num_workers,
             options.batch, &metrics_) {
  DCNAS_CHECK(registry_ != nullptr, "Server requires a ModelRegistry");
}

Server::~Server() { shutdown(); }

std::future<Tensor> Server::submit(const std::string& model,
                                   const Tensor& input) {
  return submit(model, input, std::chrono::microseconds(0));
}

std::future<Tensor> Server::submit(const std::string& model,
                                   const Tensor& input,
                                   std::chrono::microseconds deadline) {
  // An unknown model is refused here, on the caller's thread, so no
  // exception object is handed across threads through a promise for it. A
  // model evicted after this check still fails on its future.
  if (!registry_->contains(model)) {
    metrics_.counter(model_metric("serve.error.count", model)).add(1);
    throw InvalidArgument("model not registered: " + model);
  }
  try {
    return group_.submit(model, input, deadline);
  } catch (const RejectedError&) {
    metrics_.counter(model_metric("serve.error.count", model)).add(1);
    throw;
  }
}

void Server::shutdown() { group_.shutdown(); }

}  // namespace dcnas::serve
