#pragma once
/// \file diagnostic.hpp
/// \brief Structured findings emitted by graph verification passes.
///
/// Every finding carries a stable rule id (e.g. "sem.out-shape") so tests,
/// the lint CLI, and CI logs can match on the class of defect rather than
/// on message wording. Messages name the offending node and include the
/// conflicting values, mirroring the style of ModelGraph's builder errors.

#include <string>
#include <vector>

namespace dcnas::analysis {

enum class Severity {
  kError,    ///< the graph must not cross a trust boundary
  kWarning,  ///< suspicious but executable (e.g. a fusion-legality smell)
};

const char* severity_name(Severity severity);

/// One finding from one pass about one node (or the whole graph).
struct Diagnostic {
  std::string rule;       ///< stable rule id, "<layer>.<name>"
  Severity severity = Severity::kError;
  int node = -1;          ///< index into ModelGraph::nodes(); -1 = graph-wide
  std::string node_name;  ///< empty when node == -1
  std::string message;

  /// "error[sem.out-shape] node 4 'maxpool': ..." — one line, no newline.
  std::string to_string() const;
};

/// Stable rule ids, grouped by pass layer. Referenced by the corruption
/// harness in tests/analysis so renames are caught at compile time.
namespace rules {
// topology
inline constexpr const char* kInputFirst = "topo.input-first";
inline constexpr const char* kSingleOutput = "topo.single-output";
inline constexpr const char* kDanglingInput = "topo.dangling-input";
inline constexpr const char* kArity = "topo.arity";
inline constexpr const char* kOrphan = "topo.orphan";
// semantics
inline constexpr const char* kInShape = "sem.in-shape";
inline constexpr const char* kOutShape = "sem.out-shape";
inline constexpr const char* kAddShape = "sem.add-shape";
inline constexpr const char* kGeometry = "sem.geometry";
inline constexpr const char* kParams = "sem.params";
inline constexpr const char* kFlops = "sem.flops";
inline constexpr const char* kBnProducer = "sem.bn-producer";
// resources
inline constexpr const char* kActivationBytes = "res.activation-bytes";
// compiled plans (analysis::PlanVerifier — plan_verifier.hpp). For plan
// diagnostics, Diagnostic::node is the *step* index (-1 = plan-wide) and
// node_name is the step name.
inline constexpr const char* kPlanSlotBounds = "plan.slot-bounds";
inline constexpr const char* kPlanLiveness = "plan.liveness";
inline constexpr const char* kPlanAlias = "plan.alias";
inline constexpr const char* kPlanDefBeforeUse = "plan.def-before-use";
inline constexpr const char* kPlanProvenance = "plan.provenance";
inline constexpr const char* kPlanStepOrder = "plan.step-order";
inline constexpr const char* kPlanFusionIllegal = "plan.fusion-illegal";
inline constexpr const char* kPlanWiring = "plan.wiring";
inline constexpr const char* kPlanOutput = "plan.output";
inline constexpr const char* kPlanShape = "plan.shape";
inline constexpr const char* kPlanWeightShape = "plan.weight-shape";
inline constexpr const char* kPlanWeightLayout = "plan.weight-layout";
inline constexpr const char* kPlanFoldError = "plan.fold-error";
inline constexpr const char* kPlanQuant = "plan.quant";
}  // namespace rules

}  // namespace dcnas::analysis
