#pragma once
/// \file server.hpp
/// \brief Concurrent inference server: registry -> replica group (dynamic
/// batchers + worker pools) -> per-model metrics in a private
/// obs::MetricsRegistry.
///
/// submit() admits one image and returns a future; the ReplicaGroup routes
/// it to one of num_replicas independent {batcher, pool} units
/// (power-of-two-choices on pending depth — see replica.hpp). Workers pop
/// merged batches, look the model up in the ModelRegistry, run its (const,
/// reentrant) verified compiled plan, and answer each request's
/// future with its row of the batched output. Overload surfaces as
/// RejectedError from submit() with a typed RejectReason — the queues never
/// grow past BatchPolicy.queue_capacity per replica; deadline-tagged
/// requests that miss their SLO are shed through their futures instead of
/// executed. shutdown() (also run by the destructor) stops admissions,
/// drains every in-flight request, and joins the workers, so no accepted
/// request is ever dropped.

#include <chrono>
#include <future>
#include <memory>
#include <string>

#include "dcnas/obs/metrics.hpp"
#include "dcnas/serve/batcher.hpp"
#include "dcnas/serve/registry.hpp"
#include "dcnas/serve/replica.hpp"

namespace dcnas::serve {

/// A count of 0 means 1 (ReplicaGroup clamps both).
struct ServerOptions {
  std::size_t num_workers = 2;   ///< batch-executing threads *per replica*
  std::size_t num_replicas = 1;  ///< independent {batcher, pool} units
  BatchPolicy batch;             ///< per replica (capacity is per replica)
};

class Server {
 public:
  Server(std::shared_ptr<ModelRegistry> registry, ServerOptions options = {});

  /// Drains and joins (shutdown()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits one image — (C,H,W) or (1,C,H,W) — for \p model. The future
  /// yields the model output for that image alone, shaped as a batch of one
  /// (e.g. (1, num_classes)); a failed run, or a model evicted while the
  /// request was queued, surfaces as an exception on the future. Throws
  /// InvalidArgument for a model the registry does not hold, and
  /// RejectedError (with reason()) under overload or after shutdown.
  std::future<Tensor> submit(const std::string& model, const Tensor& input);

  /// As above with an SLO deadline tag: the request must complete within
  /// \p deadline of admission or it is shed — its future fails with
  /// RejectedError{kDeadlineExpired} (expired while queued) or
  /// {kShedOverload} (evicted past-deadline to admit newer work). A
  /// non-positive deadline means untagged.
  std::future<Tensor> submit(const std::string& model, const Tensor& input,
                             std::chrono::microseconds deadline);

  /// Graceful stop: reject new work, drain all accepted requests, join
  /// workers. Idempotent.
  void shutdown();

  /// This server's per-model metrics (see model_metric()), private to the
  /// instance so two servers never mix their counts. Process-wide serving
  /// counters live in obs::MetricsRegistry::global().
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  ModelRegistry& registry() { return *registry_; }
  std::size_t pending() const { return group_.pending(); }

  /// The routing layer, e.g. for per-replica pending depths.
  ReplicaGroup& replicas() { return group_; }
  const ReplicaGroup& replicas() const { return group_; }

 private:
  std::shared_ptr<ModelRegistry> registry_;
  obs::MetricsRegistry metrics_;
  ReplicaGroup group_;  ///< last member: shut down (joined) first
};

}  // namespace dcnas::serve
