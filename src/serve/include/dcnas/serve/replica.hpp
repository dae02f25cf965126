#pragma once
/// \file replica.hpp
/// \brief Serving replicas: N independent {batcher, worker-pool} units
/// behind one routing front, scaling batch execution past a single queue.
///
/// A Replica is the unit the pre-PR-9 Server was in its entirety: one
/// DynamicBatcher feeding a dedicated ThreadPool of batch-executing
/// workers. A ReplicaGroup owns N of them and routes each request with
/// power-of-two-choices on pending queue depth — sample two distinct
/// replicas uniformly, enqueue on the shallower — which keeps the maximum
/// queue imbalance exponentially smaller than random routing at the cost of
/// two atomic reads per request (Mitzenmacher's "power of two choices").
///
/// Replicas hold **no model state**. Every batch execution takes a fresh
/// ModelRegistry::snapshot(), so a hot-swap (re-registration) propagates to
/// all replicas atomically at their next batch boundary: there is no
/// per-replica copy to update, and no window where two replicas serve
/// different versions longer than their in-flight batches.
///
/// Worker loops are noexcept drains: every failure — executor errors, merge
/// bad_alloc, snapshot misses — is answered through the affected requests'
/// futures, never leaked into the pool (where wait_idle() would rethrow it
/// from Server::~Server and terminate the process).

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dcnas/common/thread_pool.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/serve/batcher.hpp"
#include "dcnas/serve/registry.hpp"

namespace dcnas::serve {

/// Name of one per-model serving metric: `<family>{model=<model>}`, e.g.
/// `serve.request.count{model=drainage}`. Replicas record the families
/// `serve.request.count`, `serve.error.count` (counters),
/// `serve.request.latency_ms` and `serve.batch.size` (summaries).
std::string model_metric(std::string_view family, std::string_view model);

/// One {batcher, pool} serving unit. Construction starts the workers;
/// destruction closes intake, drains accepted requests, and joins.
class Replica {
 public:
  /// Starts \p num_workers (>= 1) workers. \p metrics receives the
  /// per-model families (see model_metric()). It is shared across the
  /// owning group's replicas (the registry is thread-safe) and must outlive
  /// the replica.
  Replica(std::shared_ptr<ModelRegistry> registry, const BatchPolicy& policy,
          std::size_t num_workers, obs::MetricsRegistry* metrics);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Admits one request into this replica's batcher (see
  /// DynamicBatcher::enqueue for the admission policy and deadline tag).
  std::future<Tensor> enqueue(
      const std::string& model, const Tensor& input,
      std::chrono::microseconds deadline = std::chrono::microseconds(0));

  /// Requests admitted to this replica but not yet executed or shed — the
  /// routing signal.
  std::size_t pending() const { return batcher_.pending(); }

  /// Stops admissions; pending requests stay drainable by the workers.
  void close() { batcher_.close(); }

  /// Blocks until the workers have drained every accepted request and gone
  /// idle. Call close() first or this never returns under open intake.
  void drain();

  /// Test seam: forwarded to the batcher (merge-failure injection).
  DynamicBatcher& batcher_for_testing() { return batcher_; }

 private:
  void worker_loop() noexcept;
  void handle_batch(Batch&& batch) noexcept;

  std::shared_ptr<ModelRegistry> registry_;
  obs::MetricsRegistry* metrics_;
  DynamicBatcher batcher_;
  ThreadPool pool_;  ///< last member: destroyed (joined) first
};

/// N replicas behind power-of-two-choices routing. Thread-safe: submit()
/// may be called from any number of producer threads.
class ReplicaGroup {
 public:
  /// Starts \p num_replicas replicas of \p workers_per_replica workers
  /// each, every one batching under \p policy (capacity is per replica).
  /// A count of 0 means 1.
  ReplicaGroup(std::shared_ptr<ModelRegistry> registry,
               std::size_t num_replicas, std::size_t workers_per_replica,
               const BatchPolicy& policy, obs::MetricsRegistry* metrics);

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Routes one request: two distinct replicas are sampled uniformly and
  /// the one with fewer pending requests admits it. When the chosen replica
  /// rejects with kQueueFull, the other choice is tried once before the
  /// rejection propagates — overflow spills to the second-best replica
  /// instead of surfacing while another queue still has room.
  std::future<Tensor> submit(
      const std::string& model, const Tensor& input,
      std::chrono::microseconds deadline = std::chrono::microseconds(0));

  /// Total pending across replicas (sampled per replica, not atomic).
  std::size_t pending() const;

  /// Per-replica pending depths, index-aligned with replica numbering.
  std::vector<std::size_t> pending_per_replica() const;

  /// Graceful stop: close every replica's intake, then drain them all.
  /// Idempotent.
  void shutdown();

  std::size_t size() const { return replicas_.size(); }

  Replica& replica_for_testing(std::size_t i) { return *replicas_[i]; }

 private:
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace dcnas::serve
