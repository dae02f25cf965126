#include "dcnas/plan/compiler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dcnas/analysis/passes.hpp"
#include "dcnas/analysis/verifier.hpp"
#include "dcnas/common/error.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/plan/executor.hpp"
#include "dcnas/quant/quantize.hpp"
#include "dcnas/tensor/gemm.hpp"

namespace dcnas::plan {

namespace {

using graph::GraphNode;
using graph::KernelKind;
using graph::ModelGraph;
using graph::NodeState;
using graph::OpKind;

/// The trivial one-op-per-step grouping used when fusion is disabled.
std::vector<graph::FusedKernel> unfused_groups(const ModelGraph& g) {
  std::vector<graph::FusedKernel> kernels;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const GraphNode& n = g.nodes()[i];
    graph::FusedKernel k;
    k.name = n.name;
    k.in_shape = n.in_shape;
    k.out_shape = n.out_shape;
    k.attrs = n.attrs;
    k.flops = n.flops;
    k.params = n.params;
    k.nodes.push_back(static_cast<int>(i));
    switch (n.kind) {
      case OpKind::kInput:
      case OpKind::kOutput:
        continue;
      case OpKind::kConv: k.kind = KernelKind::kConv; break;
      case OpKind::kBatchNorm: k.kind = KernelKind::kBatchNorm; break;
      case OpKind::kRelu: k.kind = KernelKind::kRelu; break;
      case OpKind::kMaxPool: k.kind = KernelKind::kMaxPool; break;
      case OpKind::kGlobalAvgPool: k.kind = KernelKind::kGlobalAvgPool; break;
      case OpKind::kAdd: k.kind = KernelKind::kAdd; break;
      case OpKind::kLinear: k.kind = KernelKind::kLinear; break;
    }
    kernels.push_back(std::move(k));
  }
  return kernels;
}

bool is_conv_kind(KernelKind kind) {
  return kind == KernelKind::kConv || kind == KernelKind::kConvRelu ||
         kind == KernelKind::kConvBn || kind == KernelKind::kConvBnRelu;
}

/// Bakes BN running statistics into output channel c's weight row and bias:
///   w'_c = w_c · γ_c/√(σ²_c+ε),  b'_c = β_c + (b_c − μ_c)·γ_c/√(σ²_c+ε)
void fold_bn_row(float* w_row, std::int64_t row, float& bias,
                 const NodeState& bn_state, std::int64_t c, float eps) {
  const float inv_std = 1.0f / std::sqrt(bn_state.bn_var[c] + eps);
  const float scale = bn_state.bn_gamma[c] * inv_std;
  for (std::int64_t j = 0; j < row; ++j) w_row[j] *= scale;
  bias = bn_state.bn_beta[c] + (bias - bn_state.bn_mean[c]) * scale;
}

/// Writes a conv step's (OC, IC·k·k) weights into the plan one micro-panel
/// of output channels at a time, so no matrix-sized copy exists beside the
/// packed one: each source row is BN-folded when \p bn is set, then the
/// panel is packed for gemm_im2col_packed.
void emit_conv_weights(PlanStep& step, const Tensor& src, const NodeState* bn,
                       Tensor& bias, std::int64_t oc, std::int64_t row,
                       float eps) {
  step.weight = Tensor({packed_gemm_a_size(oc, row)});
  if (bn == nullptr) {
    pack_gemm_a_rows(oc, row, 0, oc, src.data(), step.weight.data());
    return;
  }
  std::vector<float> w(static_cast<std::size_t>(kGemmPanelRows * row));
  for (std::int64_t c0 = 0; c0 < oc; c0 += kGemmPanelRows) {
    const std::int64_t rows = std::min(kGemmPanelRows, oc - c0);
    std::copy(src.data() + c0 * row, src.data() + (c0 + rows) * row,
              w.begin());
    for (std::int64_t c = c0; c < c0 + rows; ++c) {
      fold_bn_row(w.data() + (c - c0) * row, row, bias[c], *bn, c, eps);
    }
    pack_gemm_a_rows(oc, row, c0, rows, w.data(), step.weight.data());
  }
}

/// Greedy best-fit free-list arena assignment over the step list: walk
/// steps in order, release slots whose last use has passed, and place each
/// step's output in the smallest free hole that fits (lowest offset on
/// ties), extending the arena top only when no hole fits. Deterministic.
void assign_arena(CompiledPlan& plan) {
  std::map<std::int64_t, std::int64_t> holes;  // offset -> size, coalesced
  std::int64_t top = 0;

  auto release = [&](std::int64_t offset, std::int64_t size) {
    auto [it, inserted] = holes.emplace(offset, size);
    DCNAS_ASSERT(inserted, "arena double free");
    // Coalesce with the next hole, then with the previous one.
    auto next = std::next(it);
    if (next != holes.end() && it->first + it->second == next->first) {
      it->second += next->second;
      holes.erase(next);
    }
    if (it != holes.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        holes.erase(it);
      }
    }
  };

  auto acquire = [&](std::int64_t size) -> std::int64_t {
    auto best = holes.end();
    for (auto it = holes.begin(); it != holes.end(); ++it) {
      if (it->second < size) continue;
      if (best == holes.end() || it->second < best->second) best = it;
    }
    if (best != holes.end()) {
      const std::int64_t offset = best->first;
      const std::int64_t remaining = best->second - size;
      holes.erase(best);
      if (remaining > 0) holes.emplace(offset + size, remaining);
      return offset;
    }
    const std::int64_t offset = top;
    top += size;
    return offset;
  };

  for (int t = 0; t < static_cast<int>(plan.steps.size()); ++t) {
    // Slots dead before this step free their bytes for this step's output;
    // slots read *by* this step stay resident (step kernels never write
    // over an operand they are still reading).
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      ArenaSlot& s = plan.slots[i];
      if (s.def >= 0 && s.def < t && s.last_use == t - 1) {
        release(s.offset, s.size);
      }
    }
    ArenaSlot& out = plan.slots[static_cast<std::size_t>(plan.steps[
        static_cast<std::size_t>(t)].out)];
    out.offset = acquire(out.size);
  }
  plan.arena_size = top;
}

/// Post-compile int8 quantization (QUANTIZATION.md): calibrate activation
/// ranges by replaying the still-fp32 plan over the calibration batch, then
/// quantize every conv-family step's BN-folded weight rows (read back out
/// of the packed payload, bit for bit the fold's result) per output channel
/// and attach the fused requantization scales. Slot ids are 1:1 with steps
/// (each step allocates a fresh slot), so a conv input's calibrated range
/// is simply its producer slot's observed absmax.
void quantize_plan(CompiledPlan& plan, const Tensor* calibration) {
  obs::Span span("quant", "quant.calibrate");
  static obs::Counter& quantized_steps =
      obs::MetricsRegistry::global().counter("plan.quant.steps.count");
  DCNAS_CHECK(calibration != nullptr,
              "int8 compilation requires a calibration batch");
  DCNAS_CHECK(calibration->ndim() == 4 && calibration->dim(0) >= 1 &&
                  calibration->dim(1) == plan.input_shape.c &&
                  calibration->dim(2) == plan.input_shape.h &&
                  calibration->dim(3) == plan.input_shape.w,
              "calibration batch shape does not match the model input");

  std::vector<float> slot_absmax(plan.steps.size(), 0.0f);
  const float input_absmax =
      quant::absmax(calibration->data(), calibration->numel());
  {
    PlanExecutor calib(plan);  // copies the fp32 plan; runs it once
    calib.run(*calibration,
              [&](const PlanStep& s, const float* data, std::int64_t n) {
                slot_absmax[static_cast<std::size_t>(s.out)] =
                    quant::absmax(data, n);
              });
  }

  for (PlanStep& step : plan.steps) {
    if (!is_conv_kind(step.kind)) continue;
    const std::int64_t oc = step.out_shape.c;
    const std::int64_t row =
        step.in_shape.c * step.attrs.kernel * step.attrs.kernel;
    step.weight_q.resize(static_cast<std::size_t>(oc * row));
    step.weight_scale.resize(static_cast<std::size_t>(oc));
    PackedGemmARows rows(oc, row, step.weight.data());
    for (std::int64_t c = 0; c < oc; ++c) {
      const quant::QuantizedWeights q =
          quant::quantize_weights(rows.row(c), 1, row);
      std::copy(q.q.begin(), q.q.end(), step.weight_q.begin() + c * row);
      step.weight_scale[static_cast<std::size_t>(c)] = q.scale[0];
    }
    const float in_absmax =
        step.args[0] == kInputSlot
            ? input_absmax
            : slot_absmax[static_cast<std::size_t>(step.args[0])];
    step.in_scale = quant::scale_for_absmax(in_absmax);
    step.requant_scale.resize(static_cast<std::size_t>(oc));
    for (std::int64_t c = 0; c < oc; ++c) {
      step.requant_scale[static_cast<std::size_t>(c)] =
          step.weight_scale[static_cast<std::size_t>(c)] * step.in_scale;
    }
    step.precision = graph::Precision::kInt8;
    ++plan.quantized_steps;
  }
  plan.precision = graph::Precision::kInt8;
  quantized_steps.add(plan.quantized_steps);
  if (span.armed()) {
    span.arg("steps", static_cast<std::int64_t>(plan.quantized_steps));
    span.arg("calib_rows", calibration->dim(0));
  }
}

}  // namespace

PlanCompiler::PlanCompiler(CompileOptions options) : options_(options) {}

CompiledPlan PlanCompiler::compile(const graph::GraphExecutor& exec) const {
  obs::Span span("plan", "plan.compile");
  static obs::Counter& compiles =
      obs::MetricsRegistry::global().counter("plan.compile.count");

  const ModelGraph& g = exec.graph();
  analysis::verify_or_throw(g, "PlanCompiler refuses graph");
  const auto& state = exec.node_states();
  const auto& identity = exec.identity_flags();
  const float eps = exec.bn_eps();

  // The fusion-legality pass gates folding: BN nodes it flags must stay
  // standalone. fuse_graph() applies the same single-consumer rules, so a
  // disagreement is an internal bug, checked below.
  std::vector<analysis::Diagnostic> diags;
  analysis::make_fusion_legality_pass()->run(g, diags);
  std::set<int> unfoldable_bn;
  for (const auto& d : diags) {
    if (d.rule == analysis::rules::kBnProducer) unfoldable_bn.insert(d.node);
  }

  const auto groups =
      options_.fuse ? graph::fuse_graph(g) : unfused_groups(g);

  CompiledPlan plan;
  plan.graph_nodes = static_cast<int>(g.size());
  plan.input_shape = g.nodes().front().out_shape;

  // node index -> slot id of the group that produces that node's value.
  std::map<int, int> node_slot;
  node_slot[0] = kInputSlot;

  for (const auto& group : groups) {
    DCNAS_ASSERT(!group.nodes.empty(), "fused group without provenance");
    const int primary = group.nodes.front();
    const int tail = group.nodes.back();
    const GraphNode& pn = g.node(primary);

    PlanStep step;
    step.kind = group.kind;
    step.name = group.name;
    step.node = primary;
    step.nodes = group.nodes;
    step.attrs = group.attrs;
    step.in_shape = pn.in_shape;
    step.out_shape = group.out_shape;
    for (int input : pn.inputs) {
      const auto it = node_slot.find(input);
      DCNAS_ASSERT(it != node_slot.end(),
                   "step '" + group.name + "' reads an unplanned node");
      step.args.push_back(it->second);
    }

    const NodeState& ps = state[static_cast<std::size_t>(primary)];
    if (is_conv_kind(group.kind)) {
      const std::int64_t oc = pn.out_shape.c;
      const std::int64_t row =
          pn.in_shape.c * pn.attrs.kernel * pn.attrs.kernel;
      Tensor bias = ps.bias ? *ps.bias : Tensor({oc});
      bool has_bias = ps.bias.has_value();
      const NodeState* fold = nullptr;
      if (group.kind == KernelKind::kConvBn ||
          group.kind == KernelKind::kConvBnRelu) {
        const int bn = group.nodes[1];
        DCNAS_ASSERT(g.node(bn).kind == OpKind::kBatchNorm,
                     "conv-bn group without a BN node");
        DCNAS_ASSERT(unfoldable_bn.count(bn) == 0,
                     "fuse_graph folded a BN the legality pass refused");
        if (!identity[static_cast<std::size_t>(bn)]) {
          // Fold now; pre-folded executors already absorbed the BN.
          fold = &state[static_cast<std::size_t>(bn)];
        }
        has_bias = true;
        ++plan.folded_batchnorms;
      }
      emit_conv_weights(step, ps.conv_weight, fold, bias, oc, row, eps);
      if (has_bias) step.bias = std::move(bias);
    } else if (group.kind == KernelKind::kLinear) {
      step.weight = ps.linear_weight;
      DCNAS_ASSERT(ps.bias.has_value(), "linear step without bias");
      step.bias = *ps.bias;
    } else if (group.kind == KernelKind::kBatchNorm) {
      if (identity[static_cast<std::size_t>(primary)]) {
        // Already folded into the producer conv: a pure passthrough.
        step.bn_scale = Tensor({pn.out_shape.c}, 1.0f);
        step.bn_shift = Tensor({pn.out_shape.c});
      } else {
        step.bn_scale = Tensor({pn.out_shape.c});
        step.bn_shift = Tensor({pn.out_shape.c});
        for (std::int64_t c = 0; c < pn.out_shape.c; ++c) {
          const float inv_std = 1.0f / std::sqrt(ps.bn_var[c] + eps);
          const float scale = ps.bn_gamma[c] * inv_std;
          step.bn_scale[c] = scale;
          step.bn_shift[c] = ps.bn_beta[c] - ps.bn_mean[c] * scale;
        }
      }
    }

    // Allocate the group's output slot and publish it under the tail node.
    ArenaSlot slot;
    slot.size = group.out_shape.numel();
    slot.def = static_cast<int>(plan.steps.size());
    slot.last_use = slot.def;
    const int slot_id = static_cast<int>(plan.slots.size());
    plan.slots.push_back(slot);
    step.out = slot_id;
    node_slot[tail] = slot_id;

    plan.steps.push_back(std::move(step));
  }

  // Liveness: a slot lives until the last step that reads it; the output
  // slot lives to the end of the plan.
  for (std::size_t t = 0; t < plan.steps.size(); ++t) {
    for (int arg : plan.steps[t].args) {
      if (arg == kInputSlot) continue;
      ArenaSlot& s = plan.slots[static_cast<std::size_t>(arg)];
      s.last_use = std::max(s.last_use, static_cast<int>(t));
    }
  }
  // Resolve the output node's source slot.
  for (const GraphNode& n : g.nodes()) {
    if (n.kind != OpKind::kOutput) continue;
    const auto it = node_slot.find(n.inputs.front());
    DCNAS_ASSERT(it != node_slot.end(), "plan output reads an unplanned node");
    plan.output_slot = it->second;
    plan.output_shape = n.out_shape;
  }
  if (plan.output_slot != kInputSlot) {
    ArenaSlot& out =
        plan.slots[static_cast<std::size_t>(plan.output_slot)];
    out.last_use = static_cast<int>(plan.steps.size());
  }

  assign_arena(plan);
  plan.check_arena();
  if (options_.precision == graph::Precision::kInt8) {
    quantize_plan(plan, options_.calibration);
  }
  if (const PlanSelfCheck check = plan_self_check()) {
    // Installed by dcnas_plan_analysis in debug builds (or explicitly by
    // tests): re-verifies the emitted plan against its source.
    check(plan, exec);
  }

  compiles.add(1);
  if (span.armed()) {
    span.arg("steps", static_cast<std::int64_t>(plan.steps.size()));
    span.arg("arena_floats", plan.arena_size);
  }
  return plan;
}

CompiledPlan compile_plan(const graph::GraphExecutor& exec,
                          CompileOptions options) {
  return PlanCompiler(options).compile(exec);
}

namespace {
std::atomic<PlanSelfCheck> g_plan_self_check{nullptr};
}  // namespace

void set_plan_self_check(PlanSelfCheck check) {
  g_plan_self_check.store(check, std::memory_order_release);
}

PlanSelfCheck plan_self_check() {
  return g_plan_self_check.load(std::memory_order_acquire);
}

}  // namespace dcnas::plan
