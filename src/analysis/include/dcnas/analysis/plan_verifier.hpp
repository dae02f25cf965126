#pragma once
/// \file plan_verifier.hpp
/// \brief Pass-based static verification of compiled inference plans.
///
/// The GraphVerifier (verifier.hpp) guards the source IR; the PlanVerifier
/// closes the loop over the artifact serving actually executes: a
/// CompiledPlan is re-verified against the GraphExecutor it was compiled
/// from by *independently re-deriving* every property the compiler
/// computed — liveness from step order, wiring from fusion provenance,
/// folded weights in interval arithmetic — instead of trusting the
/// compiler's own bookkeeping. Design mirrors the GraphVerifier: ordered
/// passes, stable rule ids (rules::kPlan*), structured Diagnostics. For
/// plan diagnostics, Diagnostic::node holds the *step* index (-1 =
/// plan-wide) and node_name the step name.
///
/// standard() pipeline, in run order:
///   plan-arena      — kPlanSlotBounds, kPlanLiveness, kPlanAlias: slot
///                     extents, liveness re-derived from the step list, and
///                     the symbolic all-batch-sizes non-overlap proof.
///   plan-dataflow   — kPlanDefBeforeUse: slot id validity, reads strictly
///                     after the (re-derived) defining step, no in-place
///                     read/write hazard, structural arity.
///   plan-provenance — kPlanProvenance, kPlanStepOrder,
///                     kPlanFusionIllegal: every step maps back to a
///                     contiguous fusion-legal source chain, the chains
///                     partition the non-structural graph nodes, step order
///                     respects graph topological order, and no fused BN is
///                     one the fusion-legality pass refused.
///   plan-wiring     — kPlanWiring, kPlanOutput, kPlanShape: operand slots
///                     re-derived from the graph edges + provenance tails,
///                     output slot/shape, per-step shapes and slot sizes
///                     against the source annotations.
///   plan-folding    — kPlanWeightShape, kPlanWeightLayout, kPlanFoldError:
///                     bound tensor dimensions; conv weights must be a
///                     packed payload (gemm.hpp pack_gemm_a_rows) of the
///                     source geometry's size whose pad lanes are zero; and a
///                     replay of BN weight folding, on the unpacked rows, in
///                     outward-rounded interval arithmetic (interval.hpp)
///                     that bounds the legitimate compile-time rounding
///                     error — verbatim-copied weights must match bitwise.
///   plan-quant      — kPlanQuant: int8 payload audit. fp32 steps must
///                     carry no quantization payload; int8 conv steps must
///                     carry per-channel int8 weights that *bitwise* match
///                     a re-quantization of the step's retained fp32
///                     (BN-folded) weights, requantization scales that
///                     bitwise equal weight_scale[c]·in_scale, and a
///                     finite positive activation scale. Composes with
///                     plan-folding: folding verifies the fp32 reference
///                     against the source, quant verifies the int8 payload
///                     against the fp32 reference.
///
/// Trust boundaries that run the standard pipeline (verify_plan_or_throw):
///   - serve::ModelRegistry — refuses to install or hot-swap a plan that
///     fails verification (both the plans it compiles itself and
///     caller-supplied precompiled plans).
///   - plan::PlanCompiler — debug builds self-check every emitted plan via
///     the plan::set_plan_self_check hook (installed by this library's
///     static registrar when NDEBUG is not defined).
///   - examples/dcnas_lint --plan — compiles + verifies any model file or
///     lattice config from the command line; --sweep covers the lattice.
///
/// The plan passes trust the *graph's* annotations: callers must run the
/// GraphVerifier on the source graph first (every boundary above already
/// does — the compiler refuses unverified graphs).

#include <memory>
#include <string>
#include <vector>

#include "dcnas/analysis/verifier.hpp"
#include "dcnas/graph/executor.hpp"
#include "dcnas/plan/plan.hpp"

namespace dcnas::analysis {

/// One analysis over a compiled plan and its source executor. Passes must
/// not throw on corrupt plans — they report findings, and they tolerate
/// defects other passes own (e.g. the wiring pass skips steps whose
/// provenance the provenance pass already reported).
class PlanVerifyPass {
 public:
  virtual ~PlanVerifyPass() = default;
  virtual std::string name() const = 0;
  virtual void run(const plan::CompiledPlan& plan,
                   const graph::GraphExecutor& source,
                   std::vector<Diagnostic>& out) const = 0;
};

std::unique_ptr<PlanVerifyPass> make_plan_arena_pass();
std::unique_ptr<PlanVerifyPass> make_plan_dataflow_pass();
std::unique_ptr<PlanVerifyPass> make_plan_provenance_pass();
std::unique_ptr<PlanVerifyPass> make_plan_wiring_pass();
std::unique_ptr<PlanVerifyPass> make_plan_folding_pass();
std::unique_ptr<PlanVerifyPass> make_plan_quant_pass();

/// Runs an ordered list of plan passes and aggregates their diagnostics.
class PlanVerifier {
 public:
  PlanVerifier& add_pass(std::unique_ptr<PlanVerifyPass> pass);
  VerifyResult verify(const plan::CompiledPlan& plan,
                      const graph::GraphExecutor& source) const;

  /// Names of the registered passes, in run order.
  std::vector<std::string> pass_names() const;
  std::size_t pass_count() const { return passes_.size(); }

  /// The full standard pipeline: arena, dataflow, provenance, wiring,
  /// folding, quant.
  static PlanVerifier standard();

 private:
  std::vector<std::unique_ptr<PlanVerifyPass>> passes_;
};

/// Runs the standard plan pipeline and throws InvalidArgument listing every
/// diagnostic when the plan has errors. \p context names the trust boundary
/// for the error message (e.g. "ModelRegistry refuses plan"). The source
/// graph must already have passed the GraphVerifier.
void verify_plan_or_throw(const plan::CompiledPlan& plan,
                          const graph::GraphExecutor& source,
                          const std::string& context);

}  // namespace dcnas::analysis
