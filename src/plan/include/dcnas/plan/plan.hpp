#pragma once
/// \file plan.hpp
/// \brief Compiled inference plans: the executable IR the serving hot path
/// runs instead of interpreting the op graph node by node.
///
/// A CompiledPlan is to the ModelGraph what a cudnn-frontend execution plan
/// is to its op graph: a frozen, topologically ordered list of *fused*
/// steps (Conv+BN+ReLU collapsed into one kernel with the BatchNorm baked
/// into the convolution weights at compile time) plus a static activation
/// arena. Every intermediate activation is assigned a fixed offset in one
/// reusable buffer by liveness analysis, so executing the plan performs
/// zero per-request activation allocations once an arena is warm.
///
/// Arena offsets are stored in *per-sample floats*: every activation in the
/// graph shares the batch dimension, so scaling each offset by the runtime
/// batch size preserves non-overlap and lets one plan serve any batch. The
/// compiler (compiler.hpp) produces plans; the executor (executor.hpp) runs
/// them; serve::ModelRegistry caches them next to the weights.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcnas/graph/fusion.hpp"
#include "dcnas/graph/ir.hpp"
#include "dcnas/tensor/tensor.hpp"

namespace dcnas::plan {

/// Pseudo slot id meaning "the caller's input tensor" (not in the arena).
inline constexpr int kInputSlot = -1;

/// One fused, weight-bound, arena-addressed execution step.
struct PlanStep {
  graph::KernelKind kind = graph::KernelKind::kConv;
  std::string name;          ///< primary node's name (tracing/debugging)
  int node = -1;             ///< primary graph node index (provenance)
  /// Full fusion provenance: every source node this step absorbed, in
  /// execution order (nodes.front() == node). The PlanVerifier audits this
  /// list against the source graph — a plan whose provenance does not
  /// partition the graph into contiguous fusion-legal chains is refused at
  /// the serving trust boundary.
  std::vector<int> nodes;
  std::vector<int> args;     ///< input slot ids (kInputSlot = external input)
  int out = -1;              ///< output slot id
  graph::OpAttrs attrs;      ///< conv/pool geometry when applicable
  graph::ActShape in_shape;  ///< per-sample shape of args[0]
  graph::ActShape out_shape; ///< per-sample output shape

  /// Weights owned by the plan (deep copies — the plan outlives hot-swapped
  /// executors). Conv steps carry their OC x IC·k·k rows, BN pre-folded,
  /// already packed for the GEMM (pack_gemm_a_rows in tensor/gemm.hpp;
  /// read rows back with PackedGemmARows); Linear steps carry (out, in)
  /// row-major.
  Tensor weight;
  std::optional<Tensor> bias;
  /// Standalone BatchNorm steps (fusion refused by the legality rules) are
  /// precomputed to per-channel scale/shift: y = x·scale[c] + shift[c].
  Tensor bn_scale, bn_shift;

  /// Post-training int8 payload (QUANTIZATION.md), populated only on
  /// conv-family steps of plans compiled with CompileOptions::precision ==
  /// kInt8. `weight` keeps the BN-folded fp32 reference so PlanVerifier can
  /// re-derive the whole payload bitwise ("plan.quant").
  graph::Precision precision = graph::Precision::kFp32;
  std::vector<std::int8_t> weight_q;  ///< quantized OC x IC·k·k rows
  std::vector<float> weight_scale;    ///< per-out-channel scales, size OC
  std::vector<float> requant_scale;   ///< weight_scale[oc] · in_scale
  float in_scale = 0.0f;              ///< calibrated per-tensor input scale
};

/// Arena placement and liveness of one intermediate activation.
struct ArenaSlot {
  std::int64_t offset = 0;  ///< per-sample floats from the arena base
  std::int64_t size = 0;    ///< per-sample floats
  int def = -1;             ///< step that writes the slot
  int last_use = -1;        ///< last step that reads it (inclusive)
};

/// The compiled artifact: steps + arena layout + provenance counters.
struct CompiledPlan {
  std::vector<PlanStep> steps;
  std::vector<ArenaSlot> slots;     ///< indexed by slot id
  std::int64_t arena_size = 0;      ///< per-sample floats, all slots packed
  int output_slot = kInputSlot;     ///< slot holding the final activation
  graph::ActShape input_shape;
  graph::ActShape output_shape;
  int folded_batchnorms = 0;        ///< BN nodes baked into conv weights
  int graph_nodes = 0;              ///< node count of the source graph
  /// kInt8 when the plan was compiled with a quantized conv path; the
  /// verifier insists a fp32 plan carries no quantized steps and that
  /// quantized_steps matches the steps' payloads.
  graph::Precision precision = graph::Precision::kFp32;
  int quantized_steps = 0;          ///< conv steps carrying int8 payloads

  /// Bytes one arena instance needs for the given batch size (fp32).
  std::int64_t arena_bytes(std::int64_t batch) const {
    return arena_size * batch * static_cast<std::int64_t>(sizeof(float));
  }

  /// Sum of slot sizes (per-sample floats) — compare against arena_size to
  /// see how much memory liveness-based reuse saved.
  std::int64_t total_slot_size() const;

  /// Internal-consistency check: every step's slots exist, every slot fits
  /// inside the arena, and no two slots with overlapping live ranges share
  /// bytes. Throws InternalError on violation. The compiler runs this as a
  /// post-condition; tests re-derive it independently.
  void check_arena() const;

  /// Multi-line human-readable dump: one line per step with kind, slot
  /// wiring, and arena offsets.
  std::string to_string() const;
};

}  // namespace dcnas::plan
