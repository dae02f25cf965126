#pragma once
/// \file registry.hpp
/// \brief Model registry: loads DCNX artifacts into ready GraphExecutors,
/// compiles them into inference plans, and caches both by name with
/// hot-swap and LRU eviction.
///
/// Executors and plans are handed out as shared_ptr<const ...>, so a
/// hot-swap (re-registering a name) or an eviction never invalidates an
/// instance a worker is mid-inference with — the old one stays alive until
/// its last holder drops it. Both GraphExecutor::run() and
/// PlanExecutor::run() are const and reentrant, so one cached instance of
/// each serves all workers.
///
/// Derived-state invalidation contract: everything the registry derives
/// from a model's weights (today: the compiled plan) lives in the same
/// Entry as the executor and is installed, hot-swapped, and evicted in one
/// critical section. snapshot() returns {executor, plan, version} from a
/// single locked read, so a caller can never observe a new executor paired
/// with a stale plan (or vice versa), no matter how registrations and
/// evictions interleave with serving.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dcnas/common/thread_annotations.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/plan/executor.hpp"

namespace dcnas::serve {

/// One coherent view of a registered model: the executor, the verified plan
/// compiled from exactly that executor's weights, and the version both
/// belong to.
struct ModelSnapshot {
  std::shared_ptr<const graph::GraphExecutor> exec;
  std::shared_ptr<const plan::PlanExecutor> plan;
  int version = 0;
};

/// Thread-safe name -> {executor, compiled plan} cache.
class ModelRegistry {
 public:
  /// \p capacity bounds the number of resident models; 0 means unbounded.
  /// Registering past capacity evicts the least-recently-used other model.
  explicit ModelRegistry(std::size_t capacity = 0);

  /// Registers (or hot-swaps) \p name; returns the new version number.
  /// Versions start at 1 and survive eviction, so a reloaded model never
  /// reuses a stale version number. The executor's graph must pass the
  /// standard analysis::GraphVerifier pipeline; registration of a model
  /// with verifier errors throws InvalidArgument and leaves the registry
  /// (and any currently-resident version of \p name) untouched. The plan
  /// is compiled *before* the swap and installed atomically with the
  /// executor, so serving never sees a half-updated model.
  int register_model(const std::string& name, graph::GraphExecutor exec);

  /// Registers (or hot-swaps) \p name with a caller-supplied precompiled
  /// plan instead of compiling one. This is the untrusted-artifact path: the
  /// plan is statically verified against \p exec by the full
  /// analysis::PlanVerifier pipeline *before* anything is installed — a
  /// byte-patched plan (shifted arena offsets, forged fusion provenance,
  /// reordered steps, perturbed folded weights) throws InvalidArgument
  /// naming the violated rule ids and leaves the registry, including any
  /// resident version of \p name, untouched.
  int register_model(const std::string& name, graph::GraphExecutor exec,
                     plan::CompiledPlan plan);

  /// Loads a DCNX file via graph::load_model and registers it.
  int load(const std::string& name, const std::string& path);

  /// Returns the resident executor and bumps its LRU recency. Throws
  /// InvalidArgument when \p name is not registered.
  std::shared_ptr<const graph::GraphExecutor> get(
      const std::string& name) const;

  /// Returns the resident {executor, plan, version} triple from one locked
  /// read and bumps LRU recency. Throws InvalidArgument when \p name is not
  /// registered. This is the serving lookup: every served batch runs
  /// snapshot().plan.
  ModelSnapshot snapshot(const std::string& name) const;

  bool contains(const std::string& name) const;

  /// Drops the resident executor and its plan (in-flight holders keep
  /// theirs alive). Returns false when \p name was not resident.
  bool evict(const std::string& name);

  /// Latest version registered under \p name (0 when never registered).
  int version(const std::string& name) const;

  /// Currently resident model names, sorted.
  std::vector<std::string> names() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_ptr<const graph::GraphExecutor> exec;
    std::shared_ptr<const plan::PlanExecutor> plan;  ///< derived state
    int version = 0;
    std::uint64_t last_used = 0;
  };

  void evict_lru_locked(const std::string& keep) REQUIRES(mu_);
  int install(const std::string& name,
              std::shared_ptr<const graph::GraphExecutor> exec,
              std::shared_ptr<const plan::PlanExecutor> plan);

  mutable Mutex mu_;
  mutable std::uint64_t tick_ GUARDED_BY(mu_) = 0;
  std::size_t capacity_;
  /// mutable: get() bumps LRU
  mutable std::map<std::string, Entry> entries_ GUARDED_BY(mu_);
  /// monotone, survives eviction
  std::map<std::string, int> versions_ GUARDED_BY(mu_);
};

}  // namespace dcnas::serve
