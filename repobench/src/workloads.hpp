#pragma once
/// \file workloads.hpp
/// \brief The benchmark's workloads and the per-layer ledger parts.
///
/// Each workload measures one unit of work and reports it under the common
/// end-to-end names:
///
///   workload            unit of work            p50/p90_ms of     throughput
///   serve_open.high     one open-loop request   request latency   goodput
///   serve_open.over     one open-loop request   request latency   goodput
///   serve_wire          one wire round trip     round trip        img/s
///   infer_direct.fp32   one PlanExecutor::run   batch-1 call      batch-32 img/s
///   infer_direct.int8   one PlanExecutor::run   batch-1 call      batch-32 img/s
///   nas_sweep           one lattice sweep       sweep to front    trials/s
///
/// The ledger functions run with tracing on and add per-layer metrics; the
/// ledger also runs the low-rate open-loop phase (serve_open.low).

#include <memory>
#include <string>
#include <vector>

#include "dcnas/graph/ir.hpp"
#include "dcnas/serve/registry.hpp"
#include "dcnas/serve/server.hpp"
#include "harness.hpp"

namespace repobench {

/// A workload's headline numbers, also used to measure tracing overhead.
struct Headline {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double throughput_per_s = 0.0;
};

/// The end-to-end metrics every workload prints (--trace 0).
inline void report_end_to_end(Report& report, double setup_s,
                              const Headline& h) {
  report.metric("setup_s", setup_s, "s");
  report.metric("p50_ms", h.p50_ms, "ms");
  report.metric("p90_ms", h.p90_ms, "ms");
  report.metric("throughput_per_s", h.throughput_per_s, "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---- serving (serve_bench.cpp) --------------------------------------------

enum class Phase { kLow, kHigh, kOver };
const char* phase_name(Phase phase);

/// The served model loaded into a fresh registry \p loads times (setup_s is
/// the median load), plus the direct batch-1 plan outputs every served
/// response is checked against.
struct ServingModel {
  std::shared_ptr<dcnas::serve::ModelRegistry> registry;
  std::vector<double> load_s;
  std::vector<dcnas::Tensor> chips;  ///< (1, C, H, W) request inputs
  std::vector<dcnas::Tensor> refs;   ///< direct b1 outputs, aligned
};
ServingModel load_serving_model(const ServingFixture& fixture, int loads);

/// One open-loop phase for \p seconds after a warm-up; the seed and the
/// phase key the arrival schedule. \p ledger adds the phase's per-layer
/// metrics.
Headline serve_open_phase(const Options& options, const ServingModel& model,
                          dcnas::serve::Server& server, Phase phase,
                          double seconds, Report& report, bool ledger);
/// Two blocking WireClient connections over a unix socket, closed loop.
Headline serve_wire_loop(const Options& options, const ServingModel& model,
                         dcnas::serve::Server& server, double seconds,
                         Report& report, bool ledger);

void run_serve_open(const Options& options, const ServingFixture& fixture,
                    Report& report, Phase phase);
void run_serve_wire(const Options& options, const ServingFixture& fixture,
                    Report& report);
/// Headline of a serving workload at \p seconds (tracing overhead pairs).
Headline serve_headline(const Options& options, const ServingFixture& fixture,
                        const std::string& workload, double seconds,
                        Report& report);
/// Ledger: the three phases on one server, the wire loop, its in-process
/// twin, and the codec timings.
void ledger_serve(const Options& options, const ServingFixture& fixture,
                  double seconds, Report& report);

// ---- direct inference (infer_bench.cpp) -----------------------------------

void run_infer(const Options& options, const ServingFixture& fixture,
               Report& report, dcnas::graph::Precision precision);
Headline infer_headline(const Options& options, const ServingFixture& fixture,
                        dcnas::graph::Precision precision, double seconds,
                        Report& report);
/// Ledger: GEMM roofs, the setup path, and per-step plan timing for
/// fp32/int8 at batch 1 and 32.
void ledger_infer(const Options& options, const ServingFixture& fixture,
                  Report& report);

// ---- NAS (nas_bench.cpp) ---------------------------------------------------

void run_nas(const Options& options, Report& report);
Headline nas_headline(const Options& options, double seconds, Report& report);
/// Ledger: predictor training, per-call timings on the sweep's configs, and
/// the accounting check against one sweep.
void ledger_nas(const Options& options, Report& report);

}  // namespace repobench
