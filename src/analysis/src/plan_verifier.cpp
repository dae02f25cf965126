#include "dcnas/analysis/plan_verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dcnas/analysis/interval.hpp"
#include "dcnas/analysis/passes.hpp"
#include "dcnas/common/error.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/plan/compiler.hpp"
#include "dcnas/quant/quantize.hpp"
#include "dcnas/tensor/gemm.hpp"

namespace dcnas::analysis {

namespace {

using graph::ActShape;
using graph::GraphExecutor;
using graph::GraphNode;
using graph::KernelKind;
using graph::ModelGraph;
using graph::NodeState;
using graph::OpKind;
using plan::ArenaSlot;
using plan::CompiledPlan;
using plan::kInputSlot;
using plan::PlanStep;

/// Re-association slack for the interval fold replay: the compiler
/// evaluates γ·(1/√(σ²+ε)) in round-to-nearest while the replay brackets
/// γ/√(σ²+ε) with outward rounding, so a legitimate folded value can sit a
/// few ulps outside the tight interval. 16 ulps relative (≈1.9e-6) plus a
/// denormal-scale absolute slack covers that while staying ~4 orders of
/// magnitude below any single-bit-of-exponent corruption.
constexpr float kFoldRel = 16.0f * std::numeric_limits<float>::epsilon();
constexpr float kFoldAbs = 1e-30f;

Diagnostic step_diag(const char* rule, int step, const CompiledPlan& plan,
                     std::string message) {
  Diagnostic d;
  d.rule = rule;
  d.severity = Severity::kError;
  d.node = step;
  if (step >= 0 && step < static_cast<int>(plan.steps.size())) {
    d.node_name = plan.steps[static_cast<std::size_t>(step)].name;
  }
  d.message = std::move(message);
  return d;
}

bool is_conv_kind(KernelKind kind) {
  return kind == KernelKind::kConv || kind == KernelKind::kConvRelu ||
         kind == KernelKind::kConvBn || kind == KernelKind::kConvBnRelu;
}

/// The op sequence a step of this kind must map back to, in execution
/// order. Re-derived here — deliberately not shared with fuse_graph() —
/// so a provenance check is never a tautology against the fusion pass.
const std::vector<OpKind>& expected_chain(KernelKind kind) {
  static const std::vector<OpKind> conv_bn_relu = {
      OpKind::kConv, OpKind::kBatchNorm, OpKind::kRelu};
  static const std::vector<OpKind> conv_bn = {OpKind::kConv,
                                              OpKind::kBatchNorm};
  static const std::vector<OpKind> conv_relu = {OpKind::kConv, OpKind::kRelu};
  static const std::vector<OpKind> conv = {OpKind::kConv};
  static const std::vector<OpKind> add_relu = {OpKind::kAdd, OpKind::kRelu};
  static const std::vector<OpKind> add = {OpKind::kAdd};
  static const std::vector<OpKind> relu = {OpKind::kRelu};
  static const std::vector<OpKind> bn = {OpKind::kBatchNorm};
  static const std::vector<OpKind> maxpool = {OpKind::kMaxPool};
  static const std::vector<OpKind> gap = {OpKind::kGlobalAvgPool};
  static const std::vector<OpKind> linear = {OpKind::kLinear};
  switch (kind) {
    case KernelKind::kConvBnRelu: return conv_bn_relu;
    case KernelKind::kConvBn: return conv_bn;
    case KernelKind::kConvRelu: return conv_relu;
    case KernelKind::kConv: return conv;
    case KernelKind::kAddRelu: return add_relu;
    case KernelKind::kAdd: return add;
    case KernelKind::kRelu: return relu;
    case KernelKind::kBatchNorm: return bn;
    case KernelKind::kMaxPool: return maxpool;
    case KernelKind::kGlobalAvgPool: return gap;
    case KernelKind::kLinear: return linear;
  }
  return conv;
}

/// True when a step's provenance list is structurally usable (non-empty,
/// every index a real graph node). Passes that *consume* provenance gate on
/// this and stay silent about violations — the provenance pass reports them.
bool provenance_usable(const PlanStep& step, const ModelGraph& g) {
  if (step.nodes.empty()) return false;
  for (int n : step.nodes) {
    if (n < 0 || n >= static_cast<int>(g.size())) return false;
  }
  return true;
}

bool slot_id_valid(int slot, const CompiledPlan& plan) {
  return slot >= 0 && slot < static_cast<int>(plan.slots.size());
}

/// Liveness re-derived from the step list alone, independently of the
/// compiler's ArenaSlot bookkeeping. def = the unique writing step
/// (kNoDef / kMultiDef otherwise); last_use = the last reading step, the
/// def when unread, or one past the last step for the plan's output slot
/// (it must survive the copy-out).
struct DerivedLiveness {
  static constexpr int kNoDef = -1;
  static constexpr int kMultiDef = -2;
  std::vector<int> def;
  std::vector<int> last_use;
  std::vector<int> second_def;  ///< the extra writer when kMultiDef

  explicit DerivedLiveness(const CompiledPlan& plan)
      : def(plan.slots.size(), kNoDef),
        last_use(plan.slots.size(), kNoDef),
        second_def(plan.slots.size(), kNoDef) {
    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const int out = plan.steps[t].out;
      if (!slot_id_valid(out, plan)) continue;
      auto& d = def[static_cast<std::size_t>(out)];
      if (d == kNoDef) {
        d = static_cast<int>(t);
      } else if (d != kMultiDef) {
        second_def[static_cast<std::size_t>(out)] = static_cast<int>(t);
        d = kMultiDef;
      }
    }
    for (std::size_t i = 0; i < last_use.size(); ++i) {
      if (def[i] >= 0) last_use[i] = def[i];
    }
    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      for (int arg : plan.steps[t].args) {
        if (!slot_id_valid(arg, plan)) continue;
        auto& lu = last_use[static_cast<std::size_t>(arg)];
        lu = std::max(lu, static_cast<int>(t));
      }
    }
    if (slot_id_valid(plan.output_slot, plan)) {
      last_use[static_cast<std::size_t>(plan.output_slot)] =
          static_cast<int>(plan.steps.size());
    }
  }

  bool unique_def(std::size_t slot) const { return def[slot] >= 0; }
};

// ---------------------------------------------------------------------------
// plan-arena: slot extents, re-derived liveness, symbolic aliasing.

class PlanArenaPass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-arena"; }

  void run(const CompiledPlan& plan, const GraphExecutor&,
           std::vector<Diagnostic>& out) const override {
    if (plan.arena_size < 0) {
      out.push_back(step_diag(rules::kPlanSlotBounds, -1, plan,
                              "negative arena size " +
                                  std::to_string(plan.arena_size)));
    }
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      const ArenaSlot& s = plan.slots[i];
      if (s.size < 1) {
        out.push_back(step_diag(rules::kPlanSlotBounds, -1, plan,
                                "slot " + std::to_string(i) +
                                    " has non-positive size " +
                                    std::to_string(s.size)));
        continue;
      }
      if (s.offset < 0 || s.offset + s.size > plan.arena_size) {
        out.push_back(step_diag(
            rules::kPlanSlotBounds, -1, plan,
            "slot " + std::to_string(i) + " extent [" +
                std::to_string(s.offset) + ", " +
                std::to_string(s.offset + s.size) +
                ") exceeds the arena (size " +
                std::to_string(plan.arena_size) + ")"));
      }
    }

    const DerivedLiveness live(plan);
    for (std::size_t i = 0; i < plan.slots.size(); ++i) {
      const ArenaSlot& s = plan.slots[i];
      if (live.def[i] == DerivedLiveness::kNoDef) {
        out.push_back(step_diag(rules::kPlanLiveness, -1, plan,
                                "slot " + std::to_string(i) +
                                    " is never written by any step"));
        continue;
      }
      if (live.def[i] == DerivedLiveness::kMultiDef) {
        out.push_back(step_diag(
            rules::kPlanLiveness, -1, plan,
            "slot " + std::to_string(i) + " is written by step " +
                std::to_string(live.second_def[i]) +
                " while already owned by an earlier step"));
        continue;
      }
      if (s.def != live.def[i] || s.last_use != live.last_use[i]) {
        out.push_back(step_diag(
            rules::kPlanLiveness, -1, plan,
            "slot " + std::to_string(i) + " records liveness [" +
                std::to_string(s.def) + ", " + std::to_string(s.last_use) +
                "] but the step list implies [" +
                std::to_string(live.def[i]) + ", " +
                std::to_string(live.last_use[i]) + "]"));
      }
    }

    // Symbolic aliasing proof. A slot's arena extent at batch size B is
    // [offset·B, (offset+size)·B) floats — every endpoint is a linear
    // function of B with zero intercept. For f(B)=a·B and g(B)=b·B with
    // B ≥ 1, a ≤ b implies f(B) ≤ g(B), so the *order* of any two
    // endpoints is batch-invariant: two extents overlap at some batch iff
    // their per-sample coefficient intervals [offset, offset+size)
    // overlap. Checking the coefficients therefore proves non-overlap for
    // every batch size at once — not just the one check_arena() ran at.
    // Live ranges come from the re-derivation above, never from the slots.
    for (std::size_t a = 0; a < plan.slots.size(); ++a) {
      if (!live.unique_def(a)) continue;
      for (std::size_t b = a + 1; b < plan.slots.size(); ++b) {
        if (!live.unique_def(b)) continue;
        const ArenaSlot& sa = plan.slots[a];
        const ArenaSlot& sb = plan.slots[b];
        if (sa.size < 1 || sb.size < 1) continue;  // reported above
        const bool lives_overlap = live.def[a] <= live.last_use[b] &&
                                   live.def[b] <= live.last_use[a];
        const bool coeffs_overlap = sa.offset < sb.offset + sb.size &&
                                    sb.offset < sa.offset + sa.size;
        if (lives_overlap && coeffs_overlap) {
          out.push_back(step_diag(
              rules::kPlanAlias, -1, plan,
              "slots " + std::to_string(a) + " and " + std::to_string(b) +
                  " are live together over steps [" +
                  std::to_string(std::max(live.def[a], live.def[b])) + ", " +
                  std::to_string(
                      std::min(live.last_use[a], live.last_use[b])) +
                  "] but their extents [" + std::to_string(sa.offset) +
                  "·B, " + std::to_string(sa.offset + sa.size) + "·B) and [" +
                  std::to_string(sb.offset) + "·B, " +
                  std::to_string(sb.offset + sb.size) +
                  "·B) overlap for every batch size B"));
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// plan-dataflow: slot id validity, def-before-use, in-place hazards.

class PlanDataflowPass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-dataflow"; }

  void run(const CompiledPlan& plan, const GraphExecutor&,
           std::vector<Diagnostic>& out) const override {
    const DerivedLiveness live(plan);
    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const PlanStep& step = plan.steps[t];
      const int ti = static_cast<int>(t);
      if (!slot_id_valid(step.out, plan)) {
        out.push_back(step_diag(rules::kPlanDefBeforeUse, ti, plan,
                                "writes unknown slot " +
                                    std::to_string(step.out)));
      }
      const std::size_t expected_args =
          (step.kind == KernelKind::kAdd || step.kind == KernelKind::kAddRelu)
              ? 2u
              : 1u;
      if (step.args.size() != expected_args) {
        out.push_back(step_diag(
            rules::kPlanDefBeforeUse, ti, plan,
            std::string(graph::kernel_kind_name(step.kind)) + " step needs " +
                std::to_string(expected_args) + " operand(s), has " +
                std::to_string(step.args.size())));
      }
      for (int arg : step.args) {
        if (arg == kInputSlot) continue;
        if (!slot_id_valid(arg, plan)) {
          out.push_back(step_diag(rules::kPlanDefBeforeUse, ti, plan,
                                  "reads unknown slot " +
                                      std::to_string(arg)));
          continue;
        }
        const std::size_t ai = static_cast<std::size_t>(arg);
        if (live.unique_def(ai) && live.def[ai] >= ti) {
          out.push_back(step_diag(
              rules::kPlanDefBeforeUse, ti, plan,
              "reads slot " + std::to_string(arg) +
                  " which is not defined until step " +
                  std::to_string(live.def[ai])));
        }
        if (arg == step.out) {
          out.push_back(step_diag(
              rules::kPlanDefBeforeUse, ti, plan,
              "reads and writes slot " + std::to_string(arg) +
                  " in place (step kernels never overwrite an operand "
                  "they are still reading)"));
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// plan-provenance: fusion provenance audit against the source graph.

class PlanProvenancePass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-provenance"; }

  void run(const CompiledPlan& plan, const GraphExecutor& source,
           std::vector<Diagnostic>& out) const override {
    const ModelGraph& g = source.graph();
    if (plan.graph_nodes != static_cast<int>(g.size())) {
      out.push_back(step_diag(rules::kPlanProvenance, -1, plan,
                              "plan records " +
                                  std::to_string(plan.graph_nodes) +
                                  " source nodes but the graph has " +
                                  std::to_string(g.size())));
    }

    // Which BN nodes the fusion-legality pass refuses to fold. A fused
    // conv step whose provenance absorbs one of them executes a folding
    // the analysis layer forbade.
    std::vector<Diagnostic> legality;
    make_fusion_legality_pass()->run(g, legality);
    std::set<int> refused_bn;
    for (const Diagnostic& d : legality) {
      if (d.rule == rules::kBnProducer) refused_bn.insert(d.node);
    }

    const auto consumers = g.consumers();
    std::vector<int> covered(g.size(), 0);
    int prev_primary = -1;
    int fused_bn_steps = 0;

    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const PlanStep& step = plan.steps[t];
      const int ti = static_cast<int>(t);
      if (step.kind == KernelKind::kConvBn ||
          step.kind == KernelKind::kConvBnRelu) {
        ++fused_bn_steps;
      }
      if (step.nodes.empty()) {
        out.push_back(step_diag(rules::kPlanProvenance, ti, plan,
                                "step carries no provenance"));
        continue;
      }
      bool indices_ok = true;
      for (int n : step.nodes) {
        if (n < 0 || n >= static_cast<int>(g.size())) {
          out.push_back(step_diag(rules::kPlanProvenance, ti, plan,
                                  "provenance references node " +
                                      std::to_string(n) +
                                      " outside the source graph"));
          indices_ok = false;
        }
      }
      if (!indices_ok) continue;
      for (int n : step.nodes) covered[static_cast<std::size_t>(n)] += 1;

      if (step.node != step.nodes.front()) {
        out.push_back(step_diag(
            rules::kPlanProvenance, ti, plan,
            "primary node " + std::to_string(step.node) +
                " disagrees with provenance head " +
                std::to_string(step.nodes.front())));
      }

      // The fused chain must decompose exactly as the kernel kind claims.
      const std::vector<OpKind>& chain = expected_chain(step.kind);
      if (step.nodes.size() != chain.size()) {
        out.push_back(step_diag(
            rules::kPlanProvenance, ti, plan,
            std::string(graph::kernel_kind_name(step.kind)) +
                " step must absorb exactly " +
                std::to_string(chain.size()) + " node(s), absorbs " +
                std::to_string(step.nodes.size())));
        continue;
      }
      bool kinds_ok = true;
      for (std::size_t i = 0; i < chain.size(); ++i) {
        const GraphNode& n = g.node(step.nodes[i]);
        if (n.kind != chain[i]) {
          out.push_back(step_diag(
              rules::kPlanProvenance, ti, plan,
              "provenance node " + std::to_string(step.nodes[i]) + " is a " +
                  std::string(op_kind_name(n.kind)) + "; a " +
                  graph::kernel_kind_name(step.kind) +
                  " step requires a " + op_kind_name(chain[i]) +
                  " at position " + std::to_string(i)));
          kinds_ok = false;
        }
      }
      if (!kinds_ok) continue;

      // Contiguity: each absorbed node consumes exactly the previous one,
      // and every interior activation has no other consumer — otherwise it
      // must materialize and the fusion is forged.
      for (std::size_t i = 1; i < step.nodes.size(); ++i) {
        const GraphNode& n = g.node(step.nodes[i]);
        if (n.inputs.size() != 1 || n.inputs[0] != step.nodes[i - 1]) {
          out.push_back(step_diag(
              rules::kPlanProvenance, ti, plan,
              "provenance is not a contiguous chain: node " +
                  std::to_string(step.nodes[i]) + " does not consume node " +
                  std::to_string(step.nodes[i - 1])));
        }
      }
      for (std::size_t i = 0; i + 1 < step.nodes.size(); ++i) {
        const std::size_t ci = static_cast<std::size_t>(step.nodes[i]);
        if (consumers[ci].size() != 1) {
          out.push_back(step_diag(
              rules::kPlanProvenance, ti, plan,
              "interior node " + std::to_string(step.nodes[i]) + " has " +
                  std::to_string(consumers[ci].size()) +
                  " consumer(s); its activation must materialize, so the "
                  "fusion is illegal"));
        }
      }

      if (is_conv_kind(step.kind) && step.nodes.size() > 1) {
        for (std::size_t i = 1; i < step.nodes.size(); ++i) {
          if (g.node(step.nodes[i]).kind == OpKind::kBatchNorm &&
              refused_bn.count(step.nodes[i]) > 0) {
            out.push_back(step_diag(
                rules::kPlanFusionIllegal, ti, plan,
                "folds BatchNorm node " + std::to_string(step.nodes[i]) +
                    " which the fusion-legality pass refused (" +
                    rules::kBnProducer + ")"));
          }
        }
      }

      // Steps must be emitted in graph topological order: the primary node
      // indices are strictly increasing along the step list.
      if (step.nodes.front() <= prev_primary) {
        out.push_back(step_diag(
            rules::kPlanStepOrder, ti, plan,
            "primary node " + std::to_string(step.nodes.front()) +
                " does not follow the previous step's primary " +
                std::to_string(prev_primary) +
                " in graph topological order"));
      }
      prev_primary = std::max(prev_primary, step.nodes.front());
    }

    // Coverage: the steps' provenance must partition the non-structural
    // graph nodes — nothing skipped, nothing executed twice, and the
    // structural Input/Output nodes never absorbed into a kernel.
    for (std::size_t i = 0; i < g.size(); ++i) {
      const GraphNode& n = g.nodes()[i];
      const bool structural =
          n.kind == OpKind::kInput || n.kind == OpKind::kOutput;
      if (structural && covered[i] > 0) {
        out.push_back(step_diag(rules::kPlanProvenance, -1, plan,
                                std::string(op_kind_name(n.kind)) + " node " +
                                    std::to_string(i) +
                                    " absorbed into a kernel step"));
      } else if (!structural && covered[i] == 0) {
        out.push_back(step_diag(rules::kPlanProvenance, -1, plan,
                                std::string(op_kind_name(n.kind)) + " node " +
                                    std::to_string(i) + " '" + n.name +
                                    "' is not executed by any step"));
      } else if (!structural && covered[i] > 1) {
        out.push_back(step_diag(rules::kPlanProvenance, -1, plan,
                                std::string(op_kind_name(n.kind)) + " node " +
                                    std::to_string(i) + " '" + n.name +
                                    "' is executed by " +
                                    std::to_string(covered[i]) + " steps"));
      }
    }

    if (plan.folded_batchnorms != fused_bn_steps) {
      out.push_back(step_diag(
          rules::kPlanProvenance, -1, plan,
          "plan claims " + std::to_string(plan.folded_batchnorms) +
              " folded BatchNorms but carries " +
              std::to_string(fused_bn_steps) + " conv-bn step(s)"));
    }
  }
};

// ---------------------------------------------------------------------------
// plan-wiring: operand slots, output resolution, and shape accounting —
// all re-derived from the graph edges plus the provenance tail mapping.

class PlanWiringPass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-wiring"; }

  void run(const CompiledPlan& plan, const GraphExecutor& source,
           std::vector<Diagnostic>& out) const override {
    const ModelGraph& g = source.graph();

    // A producing node's value lives in the slot of the step whose
    // provenance *tail* is that node; the graph Input node lives in the
    // caller's tensor (kInputSlot).
    std::vector<int> value_slot(g.size(), std::numeric_limits<int>::min());
    for (const PlanStep& step : plan.steps) {
      if (!provenance_usable(step, g)) continue;
      value_slot[static_cast<std::size_t>(step.nodes.back())] = step.out;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g.nodes()[i].kind == OpKind::kInput) value_slot[i] = kInputSlot;
    }

    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const PlanStep& step = plan.steps[t];
      const int ti = static_cast<int>(t);
      if (!provenance_usable(step, g)) continue;  // provenance pass reports
      const GraphNode& primary = g.node(step.nodes.front());
      const GraphNode& tail = g.node(step.nodes.back());

      if (step.args.size() != primary.inputs.size()) {
        out.push_back(step_diag(
            rules::kPlanWiring, ti, plan,
            "step has " + std::to_string(step.args.size()) +
                " operand(s) but source node '" + primary.name + "' has " +
                std::to_string(primary.inputs.size()) + " input(s)"));
      } else {
        for (std::size_t a = 0; a < step.args.size(); ++a) {
          const int producer = primary.inputs[a];
          if (producer < 0 || producer >= static_cast<int>(g.size())) {
            continue;  // the graph verifier owns dangling inputs
          }
          const int expected =
              value_slot[static_cast<std::size_t>(producer)];
          if (expected == std::numeric_limits<int>::min()) {
            out.push_back(step_diag(
                rules::kPlanWiring, ti, plan,
                "operand " + std::to_string(a) + " reads node " +
                    std::to_string(producer) +
                    " whose value is fused into the interior of another "
                    "step and never materializes"));
          } else if (step.args[a] != expected) {
            out.push_back(step_diag(
                rules::kPlanWiring, ti, plan,
                "operand " + std::to_string(a) + " reads slot " +
                    std::to_string(step.args[a]) + " but node " +
                    std::to_string(producer) + " '" +
                    g.node(producer).name + "' materializes in slot " +
                    std::to_string(expected)));
          }
        }
      }

      if (step.in_shape != primary.in_shape) {
        out.push_back(step_diag(
            rules::kPlanShape, ti, plan,
            "step in_shape " + step.in_shape.to_string() +
                " does not match source node in_shape " +
                primary.in_shape.to_string()));
      }
      if (step.out_shape != tail.out_shape) {
        out.push_back(step_diag(
            rules::kPlanShape, ti, plan,
            "step out_shape " + step.out_shape.to_string() +
                " does not match tail node out_shape " +
                tail.out_shape.to_string()));
      }
      if (step.attrs.kernel != primary.attrs.kernel ||
          step.attrs.stride != primary.attrs.stride ||
          step.attrs.padding != primary.attrs.padding) {
        out.push_back(step_diag(
            rules::kPlanShape, ti, plan,
            "step geometry k=" + std::to_string(step.attrs.kernel) + " s=" +
                std::to_string(step.attrs.stride) + " p=" +
                std::to_string(step.attrs.padding) +
                " does not match source node geometry k=" +
                std::to_string(primary.attrs.kernel) + " s=" +
                std::to_string(primary.attrs.stride) + " p=" +
                std::to_string(primary.attrs.padding)));
      }
      if (slot_id_valid(step.out, plan)) {
        const ArenaSlot& slot =
            plan.slots[static_cast<std::size_t>(step.out)];
        if (slot.size != tail.out_shape.numel()) {
          out.push_back(step_diag(
              rules::kPlanShape, ti, plan,
              "output slot " + std::to_string(step.out) + " holds " +
                  std::to_string(slot.size) +
                  " floats/sample but the step produces " +
                  std::to_string(tail.out_shape.numel())));
        }
      }
    }

    if (!g.nodes().empty() && g.nodes().front().kind == OpKind::kInput &&
        plan.input_shape != g.nodes().front().out_shape) {
      out.push_back(step_diag(
          rules::kPlanShape, -1, plan,
          "plan input_shape " + plan.input_shape.to_string() +
              " does not match the graph input " +
              g.nodes().front().out_shape.to_string()));
    }

    // Output resolution: the Output node's producer must materialize in
    // exactly the slot the plan copies out of.
    for (std::size_t i = 0; i < g.size(); ++i) {
      const GraphNode& n = g.nodes()[i];
      if (n.kind != OpKind::kOutput || n.inputs.empty()) continue;
      const int producer = n.inputs.front();
      if (producer < 0 || producer >= static_cast<int>(g.size())) continue;
      const int expected = value_slot[static_cast<std::size_t>(producer)];
      if (expected == std::numeric_limits<int>::min()) {
        out.push_back(step_diag(
            rules::kPlanOutput, -1, plan,
            "the output's producer node " + std::to_string(producer) +
                " never materializes in any slot"));
      } else if (plan.output_slot != expected) {
        out.push_back(step_diag(
            rules::kPlanOutput, -1, plan,
            "plan copies its output from slot " +
                std::to_string(plan.output_slot) + " but node " +
                std::to_string(producer) + " materializes in slot " +
                std::to_string(expected)));
      }
      if (plan.output_shape != n.out_shape) {
        out.push_back(step_diag(
            rules::kPlanOutput, -1, plan,
            "plan output_shape " + plan.output_shape.to_string() +
                " does not match the graph output " +
                n.out_shape.to_string()));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// plan-folding: bound tensor dimensions + interval-arithmetic fold replay.

class PlanFoldingPass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-folding"; }

  void run(const CompiledPlan& plan, const GraphExecutor& source,
           std::vector<Diagnostic>& out) const override {
    const ModelGraph& g = source.graph();
    const auto& state = source.node_states();
    const auto& identity = source.identity_flags();
    if (state.size() != g.size() || identity.size() != g.size()) {
      out.push_back(step_diag(rules::kPlanFoldError, -1, plan,
                              "source executor state does not cover the "
                              "graph; cannot replay folding"));
      return;
    }
    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const PlanStep& step = plan.steps[t];
      if (!provenance_usable(step, g)) continue;  // provenance pass reports
      switch (step.kind) {
        case KernelKind::kConv:
        case KernelKind::kConvRelu:
        case KernelKind::kConvBn:
        case KernelKind::kConvBnRelu:
          check_conv(plan, g, state, identity, source.bn_eps(),
                     static_cast<int>(t), out);
          break;
        case KernelKind::kBatchNorm:
          check_standalone_bn(plan, g, state, identity, source.bn_eps(),
                              static_cast<int>(t), out);
          break;
        case KernelKind::kLinear:
          check_linear(plan, g, state, static_cast<int>(t), out);
          break;
        default:
          if (step.weight.numel() != 0 || step.bias.has_value() ||
              step.bn_scale.numel() != 0 || step.bn_shift.numel() != 0) {
            out.push_back(step_diag(
                rules::kPlanWeightShape, static_cast<int>(t), plan,
                std::string(graph::kernel_kind_name(step.kind)) +
                    " step carries weights it cannot use"));
          }
          break;
      }
    }
  }

 private:
  /// One diagnostic per mismatching tensor: first offending index plus a
  /// total, so a fully corrupted weight blob does not flood the report.
  static void report_values(const char* rule, int step,
                            const CompiledPlan& plan, const std::string& what,
                            std::int64_t first_bad, std::int64_t bad_count,
                            float got, float want_lo, float want_hi,
                            std::vector<Diagnostic>& out) {
    if (bad_count == 0) return;
    std::ostringstream os;
    os << what << "[" << first_bad << "] = " << got;
    if (want_lo == want_hi) {
      os << " but the source implies " << want_lo;
    } else {
      os << " outside the interval-arithmetic bound [" << want_lo << ", "
         << want_hi << "]";
    }
    if (bad_count > 1) os << " (and " << (bad_count - 1) << " more)";
    out.push_back(step_diag(rule, step, plan, os.str()));
  }

  static void check_verbatim(const char* what, const Tensor& got,
                             const Tensor& want, int step,
                             const CompiledPlan& plan,
                             std::vector<Diagnostic>& out) {
    if (got.numel() != want.numel()) {
      out.push_back(step_diag(
          rules::kPlanWeightShape, step, plan,
          std::string(what) + " holds " + std::to_string(got.numel()) +
              " values but the source holds " +
              std::to_string(want.numel())));
      return;
    }
    std::int64_t first_bad = -1, bad = 0;
    float got_v = 0.0f, want_v = 0.0f;
    for (std::int64_t j = 0; j < got.numel(); ++j) {
      if (got[j] != want[j]) {
        if (first_bad < 0) {
          first_bad = j;
          got_v = got[j];
          want_v = want[j];
        }
        ++bad;
      }
    }
    report_values(rules::kPlanFoldError, step, plan, what, first_bad, bad,
                  got_v, want_v, want_v, out);
  }

  static void check_conv(const CompiledPlan& plan, const ModelGraph& g,
                         const std::vector<NodeState>& state,
                         const std::vector<bool>& identity, float eps,
                         int t, std::vector<Diagnostic>& out) {
    const PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
    const int conv_node = step.nodes.front();
    const GraphNode& cn = g.node(conv_node);
    if (cn.kind != OpKind::kConv) return;  // provenance pass reports
    const std::int64_t oc = cn.out_shape.c;
    const std::int64_t row = cn.in_shape.c * cn.attrs.kernel * cn.attrs.kernel;
    const std::int64_t packed = packed_gemm_a_size(oc, row);
    if (step.weight.numel() != packed) {
      out.push_back(step_diag(
          rules::kPlanWeightLayout, t, plan,
          "packed conv weight holds " + std::to_string(step.weight.numel()) +
              " values but the source geometry " + std::to_string(oc) + "x" +
              std::to_string(row) + " packs to " + std::to_string(packed)));
      return;
    }
    // Rows oc .. up to the next whole micro-panel are pad lanes: zero.
    for (std::int64_t c = oc; c * row < packed; ++c) {
      for (std::int64_t j = 0; j < row; ++j) {
        const std::int64_t at = packed_gemm_a_index(oc, row, c, j);
        std::uint32_t bits = 0;
        std::memcpy(&bits, step.weight.data() + at, sizeof(bits));
        if (bits != 0) {
          out.push_back(step_diag(
              rules::kPlanWeightLayout, t, plan,
              "packed conv weight[" + std::to_string(at) + "] = " +
                  std::to_string(step.weight[at]) +
                  " is a pad lane but is not zero"));
          return;
        }
      }
    }
    const bool fused_bn = step.kind == KernelKind::kConvBn ||
                          step.kind == KernelKind::kConvBnRelu;
    if (fused_bn && !step.bias.has_value()) {
      out.push_back(step_diag(rules::kPlanWeightShape, t, plan,
                              "conv-bn step carries no folded bias"));
      return;
    }
    if (step.bias && step.bias->numel() != oc) {
      out.push_back(step_diag(
          rules::kPlanWeightShape, t, plan,
          "conv bias holds " + std::to_string(step.bias->numel()) +
              " values for " + std::to_string(oc) + " output channels"));
      return;
    }

    const NodeState& cs = state[static_cast<std::size_t>(conv_node)];
    if (cs.conv_weight.numel() != oc * row) {
      out.push_back(step_diag(rules::kPlanFoldError, t, plan,
                              "source conv weight shape is inconsistent; "
                              "cannot replay folding"));
      return;
    }

    int bn_node = -1;
    if (fused_bn) {
      for (std::size_t i = 1; i < step.nodes.size(); ++i) {
        if (g.node(step.nodes[i]).kind == OpKind::kBatchNorm) {
          bn_node = step.nodes[i];
        }
      }
    }
    const bool replay_fold =
        bn_node >= 0 && !identity[static_cast<std::size_t>(bn_node)];

    if (!replay_fold) {
      // Verbatim copy (plain conv, or a pre-folded executor whose identity
      // BN contributed nothing): bitwise equality, no tolerance.
      std::int64_t first = -1, bad = 0;
      float got = 0.0f, want = 0.0f;
      PackedGemmARows rows(oc, row, step.weight.data());
      for (std::int64_t c = 0; c < oc; ++c) {
        const float* w = rows.row(c);
        const float* src = cs.conv_weight.data() + c * row;
        for (std::int64_t j = 0; j < row; ++j) {
          if (w[j] != src[j]) {
            if (first < 0) {
              first = c * row + j;
              got = w[j];
              want = src[j];
            }
            ++bad;
          }
        }
      }
      report_values(rules::kPlanFoldError, t, plan, "conv weight", first, bad,
                    got, want, want, out);
      if (fused_bn) {
        // Identity-BN path: the compiler still materializes a bias —
        // the source bias when present, zeros otherwise.
        const Tensor want =
            cs.bias ? *cs.bias : Tensor({oc});
        check_verbatim("conv bias", *step.bias, want, t, plan, out);
      } else if (step.bias.has_value() != cs.bias.has_value()) {
        out.push_back(step_diag(
            rules::kPlanWeightShape, t, plan,
            step.bias ? "conv step carries a bias its source never had"
                      : "conv step dropped the source bias"));
      } else if (step.bias) {
        check_verbatim("conv bias", *step.bias, *cs.bias, t, plan, out);
      }
      return;
    }

    const NodeState& bs = state[static_cast<std::size_t>(bn_node)];
    if (bs.bn_gamma.numel() != oc || bs.bn_beta.numel() != oc ||
        bs.bn_mean.numel() != oc || bs.bn_var.numel() != oc) {
      out.push_back(step_diag(rules::kPlanFoldError, t, plan,
                              "source BatchNorm state shape is "
                              "inconsistent; cannot replay folding"));
      return;
    }
    PackedGemmARows rows(oc, row, step.weight.data());
    std::int64_t w_first = -1, w_bad = 0, b_first = -1, b_bad = 0;
    float w_got = 0.0f, b_got = 0.0f;
    Interval w_want{0.0f, 0.0f}, b_want{0.0f, 0.0f};
    for (std::int64_t c = 0; c < oc; ++c) {
      if (bs.bn_var[c] + eps <= 0.0f) {
        out.push_back(step_diag(
            rules::kPlanFoldError, t, plan,
            "channel " + std::to_string(c) + " has non-positive variance " +
                std::to_string(bs.bn_var[c]) + "; folding is undefined"));
        return;
      }
      //   scale = γ/√(σ²+ε)   w' = w·scale   b' = β + (b − μ)·scale
      const Interval scale =
          idiv(Interval::point(bs.bn_gamma[c]),
               isqrt(iadd(Interval::point(bs.bn_var[c]),
                          Interval::point(eps))));
      const float* w = rows.row(c);
      const float* src = cs.conv_weight.data() + c * row;
      for (std::int64_t j = 0; j < row; ++j) {
        const Interval want = imul(Interval::point(src[j]), scale)
                                  .widened(kFoldRel, kFoldAbs);
        const float got = w[j];
        if (!want.contains(got)) {
          if (w_first < 0) {
            w_first = c * row + j;
            w_got = got;
            w_want = want;
          }
          ++w_bad;
        }
      }
      const float b0 = cs.bias ? (*cs.bias)[c] : 0.0f;
      const Interval want_bias =
          iadd(Interval::point(bs.bn_beta[c]),
               imul(isub(Interval::point(b0), Interval::point(bs.bn_mean[c])),
                    scale))
              .widened(kFoldRel, kFoldAbs);
      const float got_bias = (*step.bias)[c];
      if (!want_bias.contains(got_bias)) {
        if (b_first < 0) {
          b_first = c;
          b_got = got_bias;
          b_want = want_bias;
        }
        ++b_bad;
      }
    }
    report_values(rules::kPlanFoldError, t, plan, "folded conv weight",
                  w_first, w_bad, w_got, w_want.lo, w_want.hi, out);
    report_values(rules::kPlanFoldError, t, plan, "folded conv bias",
                  b_first, b_bad, b_got, b_want.lo, b_want.hi, out);
  }

  static void check_standalone_bn(const CompiledPlan& plan,
                                  const ModelGraph& g,
                                  const std::vector<NodeState>& state,
                                  const std::vector<bool>& identity,
                                  float eps, int t,
                                  std::vector<Diagnostic>& out) {
    const PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
    const int bn_node = step.nodes.front();
    const GraphNode& n = g.node(bn_node);
    if (n.kind != OpKind::kBatchNorm) return;  // provenance pass reports
    const std::int64_t c_count = n.out_shape.c;
    if (step.bn_scale.numel() != c_count ||
        step.bn_shift.numel() != c_count) {
      out.push_back(step_diag(
          rules::kPlanWeightShape, t, plan,
          "standalone BatchNorm carries " +
              std::to_string(step.bn_scale.numel()) + " scale / " +
              std::to_string(step.bn_shift.numel()) + " shift values for " +
              std::to_string(c_count) + " channels"));
      return;
    }
    if (identity[static_cast<std::size_t>(bn_node)]) {
      std::int64_t first = -1, bad = 0;
      float got = 0.0f, want = 0.0f;
      for (std::int64_t c = 0; c < c_count; ++c) {
        if (step.bn_scale[c] != 1.0f || step.bn_shift[c] != 0.0f) {
          if (first < 0) {
            first = c;
            got = step.bn_scale[c] != 1.0f ? step.bn_scale[c]
                                           : step.bn_shift[c];
            want = step.bn_scale[c] != 1.0f ? 1.0f : 0.0f;
          }
          ++bad;
        }
      }
      report_values(rules::kPlanFoldError, t, plan,
                    "identity BatchNorm scale/shift", first, bad, got, want,
                    want, out);
      return;
    }
    const NodeState& bs = state[static_cast<std::size_t>(bn_node)];
    if (bs.bn_gamma.numel() != c_count || bs.bn_beta.numel() != c_count ||
        bs.bn_mean.numel() != c_count || bs.bn_var.numel() != c_count) {
      out.push_back(step_diag(rules::kPlanFoldError, t, plan,
                              "source BatchNorm state shape is "
                              "inconsistent; cannot replay folding"));
      return;
    }
    std::int64_t first = -1, bad = 0;
    float got = 0.0f;
    Interval want{0.0f, 0.0f};
    for (std::int64_t c = 0; c < c_count; ++c) {
      if (bs.bn_var[c] + eps <= 0.0f) {
        out.push_back(step_diag(
            rules::kPlanFoldError, t, plan,
            "channel " + std::to_string(c) + " has non-positive variance " +
                std::to_string(bs.bn_var[c]) + "; folding is undefined"));
        return;
      }
      const Interval scale =
          idiv(Interval::point(bs.bn_gamma[c]),
               isqrt(iadd(Interval::point(bs.bn_var[c]),
                          Interval::point(eps))));
      const Interval shift =
          isub(Interval::point(bs.bn_beta[c]),
               imul(Interval::point(bs.bn_mean[c]), scale));
      const Interval scale_w = scale.widened(kFoldRel, kFoldAbs);
      const Interval shift_w = shift.widened(kFoldRel, kFoldAbs);
      if (!scale_w.contains(step.bn_scale[c])) {
        if (first < 0) {
          first = c;
          got = step.bn_scale[c];
          want = scale_w;
        }
        ++bad;
      }
      if (!shift_w.contains(step.bn_shift[c])) {
        if (first < 0) {
          first = c;
          got = step.bn_shift[c];
          want = shift_w;
        }
        ++bad;
      }
    }
    report_values(rules::kPlanFoldError, t, plan, "BatchNorm scale/shift",
                  first, bad, got, want.lo, want.hi, out);
  }

  static void check_linear(const CompiledPlan& plan, const ModelGraph& g,
                           const std::vector<NodeState>& state, int t,
                           std::vector<Diagnostic>& out) {
    const PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
    const int node = step.nodes.front();
    const GraphNode& n = g.node(node);
    if (n.kind != OpKind::kLinear) return;  // provenance pass reports
    const std::int64_t out_f = n.out_shape.c;
    const std::int64_t in_f = n.in_shape.numel();
    if (step.weight.numel() != out_f * in_f) {
      out.push_back(step_diag(
          rules::kPlanWeightShape, t, plan,
          "linear weight holds " + std::to_string(step.weight.numel()) +
              " values but the source implies " + std::to_string(out_f) +
              "x" + std::to_string(in_f)));
      return;
    }
    if (!step.bias || step.bias->numel() != out_f) {
      out.push_back(step_diag(rules::kPlanWeightShape, t, plan,
                              "linear step is missing its bias"));
      return;
    }
    const NodeState& s = state[static_cast<std::size_t>(node)];
    check_verbatim("linear weight", step.weight, s.linear_weight, t, plan,
                   out);
    if (s.bias) check_verbatim("linear bias", *step.bias, *s.bias, t, plan,
                               out);
  }
};

// ---------------------------------------------------------------------------
// plan-quant: int8 payload audit. The compiler keeps every quantized step's
// fp32 (BN-folded) weights alongside the int8 payload precisely so this
// pass can *re-run* the documented quantization scheme (quantize.hpp) and
// demand bitwise agreement — no tolerance, because both sides execute the
// identical deterministic absmax/scale/lrintf pipeline.

class PlanQuantPass : public PlanVerifyPass {
 public:
  std::string name() const override { return "plan-quant"; }

  void run(const CompiledPlan& plan, const GraphExecutor&,
           std::vector<Diagnostic>& out) const override {
    int int8_steps = 0;
    for (std::size_t t = 0; t < plan.steps.size(); ++t) {
      const PlanStep& step = plan.steps[t];
      const int ti = static_cast<int>(t);
      if (step.precision == graph::Precision::kFp32) {
        if (!step.weight_q.empty() || !step.weight_scale.empty() ||
            !step.requant_scale.empty() || step.in_scale != 0.0f) {
          out.push_back(step_diag(rules::kPlanQuant, ti, plan,
                                  "fp32 step carries a quantization "
                                  "payload"));
        }
        continue;
      }
      ++int8_steps;
      if (!is_conv_kind(step.kind)) {
        out.push_back(step_diag(
            rules::kPlanQuant, ti, plan,
            std::string(graph::kernel_kind_name(step.kind)) +
                " step is marked int8 but only conv kernels quantize"));
        continue;
      }
      check_int8_conv(plan, ti, out);
    }
    if (plan.quantized_steps != int8_steps) {
      out.push_back(step_diag(
          rules::kPlanQuant, -1, plan,
          "plan claims " + std::to_string(plan.quantized_steps) +
              " quantized step(s) but carries " + std::to_string(int8_steps)));
    }
    if (plan.precision == graph::Precision::kFp32 && int8_steps > 0) {
      out.push_back(step_diag(rules::kPlanQuant, -1, plan,
                              "fp32 plan carries " +
                                  std::to_string(int8_steps) +
                                  " int8 step(s)"));
    }
  }

 private:
  static void check_int8_conv(const CompiledPlan& plan, int t,
                              std::vector<Diagnostic>& out) {
    const PlanStep& step = plan.steps[static_cast<std::size_t>(t)];
    const std::int64_t oc = step.out_shape.c;
    const std::int64_t row =
        step.in_shape.c * step.attrs.kernel * step.attrs.kernel;
    const std::int64_t numel = oc * row;
    if (oc <= 0 || row <= 0 ||
        step.weight.numel() != packed_gemm_a_size(oc, row)) {
      // The folding/wiring passes own weight-shape defects; without a
      // consistent (oc, row) factorization the replay is undefined.
      out.push_back(step_diag(rules::kPlanQuant, t, plan,
                              "int8 step's fp32 reference weights do not "
                              "factor into per-channel rows; cannot replay "
                              "quantization"));
      return;
    }
    if (step.weight_q.size() != static_cast<std::size_t>(numel) ||
        step.weight_scale.size() != static_cast<std::size_t>(oc) ||
        step.requant_scale.size() != static_cast<std::size_t>(oc)) {
      out.push_back(step_diag(
          rules::kPlanQuant, t, plan,
          "int8 payload sizes (q=" + std::to_string(step.weight_q.size()) +
              ", scale=" + std::to_string(step.weight_scale.size()) +
              ", requant=" + std::to_string(step.requant_scale.size()) +
              ") do not match " + std::to_string(oc) + " channels x " +
              std::to_string(row) + " weights"));
      return;
    }
    if (!(step.in_scale > 0.0f) || !std::isfinite(step.in_scale)) {
      out.push_back(step_diag(
          rules::kPlanQuant, t, plan,
          "activation scale " + std::to_string(step.in_scale) +
              " is not finite and positive"));
      return;
    }

    // Replay the per-channel weight quantization bitwise, row by row.
    PackedGemmARows rows(oc, row, step.weight.data());
    std::vector<float> replay_scale(static_cast<std::size_t>(oc));
    std::int64_t first_q = -1, bad_q = 0;
    int replay_first_q = 0;
    for (std::int64_t c = 0; c < oc; ++c) {
      const quant::QuantizedWeights q =
          quant::quantize_weights(rows.row(c), 1, row);
      replay_scale[static_cast<std::size_t>(c)] = q.scale[0];
      for (std::int64_t j = 0; j < row; ++j) {
        const std::int8_t want = q.q[static_cast<std::size_t>(j)];
        if (want != step.weight_q[static_cast<std::size_t>(c * row + j)]) {
          if (first_q < 0) {
            first_q = c * row + j;
            replay_first_q = want;
          }
          ++bad_q;
        }
      }
    }
    if (bad_q > 0) {
      std::ostringstream os;
      os << "weight_q[" << first_q << "] = "
         << static_cast<int>(step.weight_q[static_cast<std::size_t>(first_q)])
         << " but re-quantizing the retained fp32 weights yields "
         << replay_first_q;
      if (bad_q > 1) os << " (and " << (bad_q - 1) << " more)";
      out.push_back(step_diag(rules::kPlanQuant, t, plan, os.str()));
    }
    for (std::int64_t c = 0; c < oc; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (step.weight_scale[ci] != replay_scale[ci]) {
        out.push_back(step_diag(
            rules::kPlanQuant, t, plan,
            "weight_scale[" + std::to_string(c) + "] = " +
                std::to_string(step.weight_scale[ci]) +
                " but the absmax replay yields " +
                std::to_string(replay_scale[ci])));
        return;  // requant composition below would cascade
      }
      const float want = step.weight_scale[ci] * step.in_scale;
      if (step.requant_scale[ci] != want) {
        out.push_back(step_diag(
            rules::kPlanQuant, t, plan,
            "requant_scale[" + std::to_string(c) + "] = " +
                std::to_string(step.requant_scale[ci]) +
                " is not bitwise weight_scale·in_scale = " +
                std::to_string(want)));
        return;
      }
    }
  }
};

}  // namespace

std::unique_ptr<PlanVerifyPass> make_plan_arena_pass() {
  return std::make_unique<PlanArenaPass>();
}
std::unique_ptr<PlanVerifyPass> make_plan_dataflow_pass() {
  return std::make_unique<PlanDataflowPass>();
}
std::unique_ptr<PlanVerifyPass> make_plan_provenance_pass() {
  return std::make_unique<PlanProvenancePass>();
}
std::unique_ptr<PlanVerifyPass> make_plan_wiring_pass() {
  return std::make_unique<PlanWiringPass>();
}
std::unique_ptr<PlanVerifyPass> make_plan_folding_pass() {
  return std::make_unique<PlanFoldingPass>();
}
std::unique_ptr<PlanVerifyPass> make_plan_quant_pass() {
  return std::make_unique<PlanQuantPass>();
}

PlanVerifier& PlanVerifier::add_pass(std::unique_ptr<PlanVerifyPass> pass) {
  DCNAS_CHECK(pass != nullptr, "PlanVerifier::add_pass requires a pass");
  passes_.push_back(std::move(pass));
  return *this;
}

VerifyResult PlanVerifier::verify(const plan::CompiledPlan& plan,
                                  const graph::GraphExecutor& source) const {
  obs::Span span("analysis", "plan.verify");
  static obs::Counter& verifies =
      obs::MetricsRegistry::global().counter("plan.verify.count");
  static obs::Counter& errors =
      obs::MetricsRegistry::global().counter("plan.verify.errors");
  VerifyResult result;
  for (const auto& pass : passes_) {
    pass->run(plan, source, result.diagnostics);
  }
  verifies.add(1);
  errors.add(static_cast<std::int64_t>(result.error_count()));
  if (span.armed()) {
    span.arg("steps", static_cast<std::int64_t>(plan.steps.size()));
    span.arg("errors", static_cast<std::int64_t>(result.error_count()));
  }
  return result;
}

std::vector<std::string> PlanVerifier::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.push_back(pass->name());
  return names;
}

PlanVerifier PlanVerifier::standard() {
  PlanVerifier v;
  v.add_pass(make_plan_arena_pass())
      .add_pass(make_plan_dataflow_pass())
      .add_pass(make_plan_provenance_pass())
      .add_pass(make_plan_wiring_pass())
      .add_pass(make_plan_folding_pass())
      .add_pass(make_plan_quant_pass());
  return v;
}

void verify_plan_or_throw(const plan::CompiledPlan& plan,
                          const graph::GraphExecutor& source,
                          const std::string& context) {
  const VerifyResult result = PlanVerifier::standard().verify(plan, source);
  if (result.ok()) return;
  std::ostringstream os;
  os << context << ": plan verification failed with " << result.error_count()
     << " error(s)";
  if (result.warning_count() > 0) {
    os << " and " << result.warning_count() << " warning(s)";
  }
  os << "\n" << result.to_string();
  throw InvalidArgument(os.str());
}

#ifndef NDEBUG
namespace {
/// Debug builds arm the compiler's self-check: every plan PlanCompiler
/// emits is immediately re-verified against its source. Static-library
/// linkage caveat: the registrar runs only in binaries that pull this
/// object in (anything calling verify_plan_or_throw or the PlanVerifier —
/// which includes every serving binary via ModelRegistry).
const bool g_self_check_installed = [] {
  plan::set_plan_self_check(
      [](const plan::CompiledPlan& p, const graph::GraphExecutor& e) {
        verify_plan_or_throw(p, e, "PlanCompiler self-check");
      });
  return true;
}();
}  // namespace
#endif

}  // namespace dcnas::analysis
