#pragma once
/// \file executor.hpp
/// \brief Runs a CompiledPlan with zero steady-state allocations.
///
/// PlanExecutor is the serving twin of graph::GraphExecutor: run() is const
/// and reentrant, so one cached instance serves every worker thread. Each
/// invocation leases one arena buffer from an internal pool (a short
/// uncontended mutex), executes the step list writing every intermediate
/// activation at its compiled offset, copies the output slot into the
/// result tensor, and returns the buffer to the pool.
///
/// Allocation accounting: the `plan.exec.allocs` counter increments only
/// when a lease misses the pool and activation memory must actually be
/// allocated (first requests after start-up or after a larger batch than
/// ever seen). In steady state every lease is a pool hit
/// (`plan.exec.arena_reuse.count`) and the counter stays flat —
/// PlanExecutorTest.SteadyStateRunsAllocateNothing gates on exactly that.
/// The returned output Tensor is the API's value-semantics copy-out and is
/// not an arena allocation.

#include <cstdint>
#include <functional>
#include <vector>

#include "dcnas/common/thread_annotations.hpp"
#include "dcnas/plan/plan.hpp"
#include "dcnas/tensor/tensor.hpp"

namespace dcnas::plan {

class PlanExecutor {
 public:
  /// Takes ownership of the plan. Throws InternalError when the plan's
  /// arena layout is inconsistent (check_arena()).
  explicit PlanExecutor(CompiledPlan plan);

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  /// Batch inference (NCHW, any batch size >= 1). Thread-safe: any number
  /// of threads may run() one executor concurrently; each lease gets a
  /// private arena.
  Tensor run(const Tensor& input) const;

  /// Calibration hook: receives every step's freshly written output buffer
  /// (batch · out_numel floats) before the next step executes. Not a hot
  /// path — PlanCompiler uses it to collect per-activation absmax ranges
  /// for int8 quantization.
  using StepObserver =
      std::function<void(const PlanStep&, const float*, std::int64_t)>;

  /// run() variant that invokes \p observer after each step. Same
  /// thread-safety and pooling behavior as run().
  Tensor run(const Tensor& input, const StepObserver& observer) const;

  const CompiledPlan& plan() const { return plan_; }

  /// Arena buffers currently parked in the pool (test introspection).
  std::size_t pooled_arenas() const;

 private:
  std::vector<float> acquire_arena(std::size_t needed) const;
  void release_arena(std::vector<float>&& buffer) const;
  void run_step(const PlanStep& step, const float* in0, const float* in1,
                float* out, std::int64_t batch) const;
  void run_conv_s8(const PlanStep& step, const float* in0, float* out,
                   std::int64_t batch) const;

  CompiledPlan plan_;
  mutable Mutex pool_mu_;
  mutable std::vector<std::vector<float>> pool_ GUARDED_BY(pool_mu_);
};

}  // namespace dcnas::plan
