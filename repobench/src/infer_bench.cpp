/// Direct inference (infer_direct.fp32 / .int8): PlanExecutor::run on the
/// 24 px serving model at batch 1 and 32, and the inference part of the
/// per-layer ledger (GEMM roofs, set-up path, per-step plan timing).

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>

#include "dcnas/analysis/plan_verifier.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/plan/compiler.hpp"
#include "dcnas/plan/executor.hpp"
#include "dcnas/tensor/gemm_s8.hpp"
#include "workloads.hpp"

namespace repobench {

using namespace dcnas;

namespace {

constexpr std::int64_t kBulk = 32;  ///< watershed batch size

const char* prec_name(graph::Precision p) {
  return p == graph::Precision::kInt8 ? "int8" : "fp32";
}

/// The plans under test and the differential references.
struct InferModel {
  std::shared_ptr<const graph::GraphExecutor> graph;  ///< reference
  std::shared_ptr<const plan::PlanExecutor> fp32;
  std::shared_ptr<const plan::PlanExecutor> int8;  ///< null unless asked
  std::vector<double> setup_s;
};

Tensor calibration_batch(const ServingFixture& fixture) {
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(fixture.chips.dim(0), 64);
       ++i) {
    idx.push_back(i);
  }
  return rows_of(fixture.chips, idx);
}

/// Set-up as a user pays it: registry load (parse, graph verify, plan
/// compile, plan verify), plus int8 calibration, compile and verify for the
/// int8 plan. Repeated \p times; setup_s is the median.
InferModel load_infer_model(const ServingFixture& fixture, bool with_int8,
                            int times) {
  InferModel m;
  const Tensor calib = calibration_batch(fixture);
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    serve::ModelRegistry registry;
    registry.load(kModelName, fixture.model_path);
    const serve::ModelSnapshot snap = registry.snapshot(kModelName);
    m.graph = snap.exec;
    m.fp32 = snap.plan;
    if (with_int8) {
      plan::CompileOptions copt;
      copt.precision = graph::Precision::kInt8;
      copt.calibration = &calib;
      plan::CompiledPlan q = plan::compile_plan(*snap.exec, copt);
      analysis::verify_plan_or_throw(q, *snap.exec, "repobench int8 plan");
      m.int8 = std::make_shared<const plan::PlanExecutor>(std::move(q));
    }
    m.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  return m;
}

/// Inputs and their expected outputs for one precision.
struct InferInputs {
  std::vector<Tensor> singles;            ///< (1, C, H, W)
  std::vector<Tensor> single_refs;        ///< plan b1 outputs
  std::vector<Tensor> bulks;              ///< (32, C, H, W)
  std::vector<std::vector<std::int64_t>> bulk_rows;  ///< chip per row
};

InferInputs make_inputs(const Options& options, const ServingFixture& fixture,
                        const plan::PlanExecutor& exec) {
  InferInputs in;
  for (std::int64_t i = 0; i < fixture.chips.dim(0); ++i) {
    in.singles.push_back(row_of(fixture.chips, i));
    in.single_refs.push_back(exec.run(in.singles.back()));
  }
  std::mt19937_64 gen(options.seed * 104729ULL + 3);
  std::uniform_int_distribution<std::int64_t> pick(0, fixture.chips.dim(0) - 1);
  for (int b = 0; b < 8; ++b) {
    std::vector<std::int64_t> rows(kBulk);
    for (auto& r : rows) r = pick(gen);
    in.bulks.push_back(rows_of(fixture.chips, rows));
    in.bulk_rows.push_back(std::move(rows));
  }
  return in;
}

/// Output checks outside the timed region: the fp32 plan against the
/// GraphExecutor (differential reference), and int8 argmax agreement with
/// fp32 against the stated floor.
void check_plans(const Options& options, const ServingFixture& fixture,
                 const InferModel& m, Report& report) {
  const Tensor ref = m.graph->run(fixture.chips);
  const Tensor fp32 = m.fp32->run(fixture.chips);
  report.check(argmax_rows(fp32) == argmax_rows(ref) &&
                   max_abs_diff(fp32, ref) <= options.output_tol,
               "fp32 plan matches GraphExecutor on every chip");
  if (m.int8) {
    const auto a = argmax_rows(m.int8->run(fixture.chips));
    const auto b = argmax_rows(fp32);
    std::int64_t agree = 0;
    for (std::size_t i = 0; i < a.size(); ++i) agree += a[i] == b[i] ? 1 : 0;
    const double share = static_cast<double>(agree) / static_cast<double>(a.size());
    char what[128];
    std::snprintf(what, sizeof(what),
                  "int8 argmax agrees with fp32 on %.3f of chips (floor %.3f)",
                  share, options.int8_agree_floor);
    report.check(share >= options.int8_agree_floor, what);
  }
}

/// Timed batch-1 and batch-32 calls, alternating in blocks so drift hits
/// both alike. Every output is checked against the batch-1 reference.
Headline time_plan(const Options& options, const plan::PlanExecutor& exec,
                   const InferInputs& in, double seconds, Report& report,
                   const char* label) {
  for (int i = 0; i < 3; ++i) {  // warm the arena pool and caches
    exec.run(in.singles[static_cast<std::size_t>(i) % in.singles.size()]);
    exec.run(in.bulks[static_cast<std::size_t>(i) % in.bulks.size()]);
  }
  std::vector<double> b1_ms, b1_at, b32_s;
  std::int64_t attempted = 0, wrong = 0;
  auto rows_ok = [&](const Tensor& y, const std::vector<std::int64_t>& rows) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Tensor got = Tensor::from_values(
          {1, y.dim(1)},
          std::vector<float>(y.data() + static_cast<std::int64_t>(r) * y.dim(1),
                             y.data() + static_cast<std::int64_t>(r + 1) * y.dim(1)));
      const Tensor& want = in.single_refs[static_cast<std::size_t>(rows[r])];
      if (argmax_rows(got) != argmax_rows(want) ||
          max_abs_diff(got, want) > options.output_tol) {
        return false;
      }
    }
    return true;
  };
  const int blocks = options.smoke ? 2 : 8;
  const double block_s = seconds / (2.0 * blocks);
  std::size_t i1 = static_cast<std::size_t>(options.seed), i32 = 0;
  const auto start = Clock::now();
  for (int b = 0; b < blocks; ++b) {
    auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(block_s));
    do {
      const std::size_t k = i1++ % in.singles.size();
      const auto t0 = Clock::now();
      const Tensor y = exec.run(in.singles[k]);
      b1_ms.push_back(ms_between(t0, Clock::now()));
      b1_at.push_back(seconds_between(start, t0));
      ++attempted;
      if (!rows_ok(y, {static_cast<std::int64_t>(k)})) ++wrong;
    } while (Clock::now() < until);
    until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(block_s));
    do {
      const std::size_t k = i32++ % in.bulks.size();
      const auto t0 = Clock::now();
      const Tensor y = exec.run(in.bulks[k]);
      b32_s.push_back(seconds_between(t0, Clock::now()));
      ++attempted;
      if (!rows_ok(y, in.bulk_rows[k])) ++wrong;
    } while (Clock::now() < until);
  }
  Headline h;
  h.p50_ms = pct(b1_ms, 0.50);
  h.p90_ms = blocked_quantile(b1_ms, b1_at, seconds, 0.90, blocks);
  h.throughput_per_s = static_cast<double>(kBulk) / pct(b32_s, 0.50);
  std::printf("infer_direct.%s: %zu b1 calls p50 %.3f ms p90 %.3f ms | %zu "
              "b32 calls median %.2f ms = %.1f img/s | wrong %lld\n",
              label, b1_ms.size(), h.p50_ms, h.p90_ms, b32_s.size(),
              1000.0 * pct(b32_s, 0.50), h.throughput_per_s,
              static_cast<long long>(wrong));
  report.attempted(attempted);
  report.failed(wrong);
  report.check(wrong == 0, std::string("infer_direct.") + label +
                               ": every timed output matches its batch-1 "
                               "reference");
  return h;
}

const plan::PlanExecutor& pick_plan(const InferModel& m,
                                    graph::Precision precision) {
  return precision == graph::Precision::kInt8 ? *m.int8 : *m.fp32;
}

}  // namespace

Headline infer_headline(const Options& options, const ServingFixture& fixture,
                        graph::Precision precision, double seconds,
                        Report& report) {
  const InferModel m = load_infer_model(
      fixture, precision == graph::Precision::kInt8, 1);
  const plan::PlanExecutor& exec = pick_plan(m, precision);
  return time_plan(options, exec, make_inputs(options, fixture, exec), seconds,
                   report, prec_name(precision));
}

void run_infer(const Options& options, const ServingFixture& fixture,
               Report& report, graph::Precision precision) {
  const bool int8 = precision == graph::Precision::kInt8;
  const InferModel m = load_infer_model(fixture, int8, 5);
  check_plans(options, fixture, m, report);
  const plan::PlanExecutor& exec = pick_plan(m, precision);
  const Headline h =
      time_plan(options, exec, make_inputs(options, fixture, exec),
                options.seconds, report, prec_name(precision));
  report_end_to_end(report, pct(m.setup_s, 0.5), h);
}

namespace {

/// Packed 256^3 GEMM rates: the roofs the plan's conv steps are held to.
void ledger_roofs(const Options& options, double* gflops, double* gops,
                  Report& report) {
  constexpr std::int64_t n = 256;
  const int reps = options.smoke ? 3 : 30;
  Rng rng(options.seed);
  const Tensor a = Tensor::rand_uniform({n, n}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::rand_uniform({n, n}, rng, -1.0f, 1.0f);
  Tensor c({n, n});
  std::vector<double> t;
  for (int i = 0; i < reps + 2; ++i) {
    const auto t0 = Clock::now();
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    if (i >= 2) t.push_back(seconds_between(t0, Clock::now()));
  }
  *gflops = 2.0 * n * n * n / pct(t, 0.5) / 1e9;

  std::vector<std::int8_t> qa(static_cast<std::size_t>(n * n)),
      qb(static_cast<std::size_t>(n * n));
  std::mt19937 gen(static_cast<unsigned>(options.seed));
  std::uniform_int_distribution<int> q(-127, 127);
  for (auto& v : qa) v = static_cast<std::int8_t>(q(gen));
  for (auto& v : qb) v = static_cast<std::int8_t>(q(gen));
  const std::vector<float> scale(static_cast<std::size_t>(n), 1e-4f);
  QuantEpilogue epi;
  epi.scale = scale.data();
  t.clear();
  for (int i = 0; i < reps + 2; ++i) {
    const auto t0 = Clock::now();
    gemm_s8(n, n, n, qa.data(), qb.data(), epi, c.data());
    if (i >= 2) t.push_back(seconds_between(t0, Clock::now()));
  }
  *gops = 2.0 * n * n * n / pct(t, 0.5) / 1e9;
  report.metric("tensor.gemm.roof_gflops", *gflops, "GFLOP/s");
  report.metric("tensor.gemm_s8.roof_gops", *gops, "GOP/s");
}

/// Each stage of the set-up path on its own, median of \p reps.
void ledger_setup(const ServingFixture& fixture, int reps, Report& report) {
  std::vector<double> load, compile, verify, registry, int8;
  const Tensor calib = calibration_batch(fixture);
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    const graph::GraphExecutor exec = graph::load_model(fixture.model_path);
    load.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    const plan::CompiledPlan p = plan::compile_plan(exec);
    compile.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    analysis::verify_plan_or_throw(p, exec, "repobench ledger");
    verify.push_back(ms_between(t0, Clock::now()));
    plan::CompileOptions copt;
    copt.precision = graph::Precision::kInt8;
    copt.calibration = &calib;
    t0 = Clock::now();
    const plan::CompiledPlan q = plan::compile_plan(exec, copt);
    int8.push_back(ms_between(t0, Clock::now()));
    serve::ModelRegistry reg;
    t0 = Clock::now();
    reg.load(kModelName, fixture.model_path);
    registry.push_back(ms_between(t0, Clock::now()));
  }
  report.metric("graph.load_ms", pct(load, 0.5), "ms");
  report.metric("plan.compile_ms", pct(compile, 0.5), "ms");
  report.metric("analysis.plan_verify_ms", pct(verify, 0.5), "ms");
  report.metric("serve.registry.load_ms", pct(registry, 0.5), "ms");
  report.metric("quant.compile_int8_ms", pct(int8, 0.5), "ms");
}

bool is_conv(graph::KernelKind k) {
  return k == graph::KernelKind::kConvBnRelu ||
         k == graph::KernelKind::kConvBn ||
         k == graph::KernelKind::kConvRelu || k == graph::KernelKind::kConv;
}

/// Reported group of a non-conv step. Standalone BatchNorm and ReLU steps
/// (none in the fused serving plan) only count towards accounted_pct.
const char* group_of(graph::KernelKind k) {
  switch (k) {
    case graph::KernelKind::kMaxPool:
    case graph::KernelKind::kGlobalAvgPool: return "pool";
    case graph::KernelKind::kAdd:
    case graph::KernelKind::kAddRelu: return "add";
    case graph::KernelKind::kLinear: return "linear";
    default: return nullptr;
  }
}

/// Stage 1..4 of each conv step, by its output spatial size: the four
/// smallest sizes are stages 4..1 and anything larger (the stem) joins
/// stage 1.
std::vector<int> conv_stages(const plan::CompiledPlan& p) {
  std::vector<std::int64_t> sizes;
  for (const auto& s : p.steps) {
    if (is_conv(s.kind)) sizes.push_back(s.out_shape.h * s.out_shape.w);
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  const int n = static_cast<int>(sizes.size());
  std::vector<int> stage;
  for (const auto& s : p.steps) {
    if (!is_conv(s.kind)) {
      stage.push_back(0);
      continue;
    }
    const int j = static_cast<int>(
        std::find(sizes.begin(), sizes.end(), s.out_shape.h * s.out_shape.w) -
        sizes.begin());
    stage.push_back(std::max(1, 4 - (n - 1 - j)));
  }
  return stage;
}

/// Per-step timing through StepObserver: step i's time is the gap between
/// the observer calls that close steps i-1 and i (the first from the call).
void ledger_plan(const Options& options, const plan::PlanExecutor& exec,
                 const Tensor& input, const char* prec, double roof,
                 Report& report) {
  const std::int64_t batch = input.dim(0);
  const plan::CompiledPlan& p = exec.plan();
  const std::size_t steps = p.steps.size();
  const int reps = options.smoke ? 3 : (batch == 1 ? 200 : 20);
  std::vector<std::vector<double>> step_ms(steps);
  std::vector<double> wall_ms;
  std::vector<Clock::time_point> stamps;
  stamps.reserve(steps);
  const plan::PlanExecutor::StepObserver observer =
      [&stamps](const plan::PlanStep&, const float*, std::int64_t) {
        stamps.push_back(Clock::now());
      };
  for (int r = 0; r < reps + 2; ++r) {
    stamps.clear();
    const auto t0 = Clock::now();
    exec.run(input, observer);
    const auto t1 = Clock::now();
    if (r < 2 || stamps.size() != steps) continue;
    wall_ms.push_back(ms_between(t0, t1));
    for (std::size_t i = 0; i < steps; ++i) {
      step_ms[i].push_back(ms_between(i == 0 ? t0 : stamps[i - 1], stamps[i]));
    }
  }
  const std::vector<int> stage = conv_stages(p);
  std::map<std::string, double> ms;
  double flops[5] = {0, 0, 0, 0, 0};
  double stage_ms[5] = {0, 0, 0, 0, 0};
  double accounted = 0.0;
  for (const char* g : {"pool", "add", "linear"}) ms[g] = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double t = pct(step_ms[i], 0.5);
    accounted += t;
    const plan::PlanStep& s = p.steps[i];
    if (is_conv(s.kind)) {
      stage_ms[stage[i]] += t;
      flops[stage[i]] += 2.0 * static_cast<double>(s.weight.numel()) *
                         static_cast<double>(s.out_shape.h * s.out_shape.w) *
                         static_cast<double>(batch);
    } else if (const char* g = group_of(s.kind)) {
      ms[g] += t;
    }
  }
  const std::string sfx = std::string(".") + prec + ".b" + std::to_string(batch);
  for (int k = 1; k <= 4; ++k) {
    const std::string st = "plan.conv.s" + std::to_string(k);
    report.metric(st + ".ms" + sfx, stage_ms[k], "ms");
    report.metric(st + ".roof_pct" + sfx,
                  stage_ms[k] > 0.0
                      ? 100.0 * flops[k] / (stage_ms[k] / 1000.0) / 1e9 / roof
                      : 0.0,
                  "%");
  }
  for (const auto& [g, t] : ms) report.metric("plan." + g + ".ms" + sfx, t, "ms");
  const double share = 100.0 * accounted / pct(wall_ms, 0.5);
  report.metric("plan.accounted_pct" + sfx, share, "%");
  char what[160];
  std::snprintf(what, sizeof(what),
                "plan.accounted_pct%s = %.1f%% within [%.0f, %.0f]",
                sfx.c_str(), share, options.plan_accounted_min,
                options.plan_accounted_max);
  report.check(share >= options.plan_accounted_min &&
                   share <= options.plan_accounted_max,
               what);
  std::printf("plan ledger %s: %zu steps, wall p50 %.3f ms, stages ms "
              "%.3f/%.3f/%.3f/%.3f\n",
              sfx.c_str() + 1, steps, pct(wall_ms, 0.5), stage_ms[1],
              stage_ms[2], stage_ms[3], stage_ms[4]);
}

}  // namespace

void ledger_infer(const Options& options, const ServingFixture& fixture,
                  Report& report) {
  double gflops = 0.0, gops = 0.0;
  ledger_roofs(options, &gflops, &gops, report);
  ledger_setup(fixture, options.smoke ? 1 : 3, report);

  const InferModel m = load_infer_model(fixture, true, 1);
  check_plans(options, fixture, m, report);
  std::vector<std::int64_t> idx(kBulk);
  for (std::int64_t i = 0; i < kBulk; ++i) idx[static_cast<std::size_t>(i)] = i % fixture.chips.dim(0);
  const Tensor b1 = row_of(fixture.chips, 0);
  const Tensor b32 = rows_of(fixture.chips, idx);
  // Warm every arena size first, then count pool misses over the ledger.
  for (const auto* exec : {m.fp32.get(), m.int8.get()}) {
    exec->run(b1);
    exec->run(b32);
  }
  const obs::Counter& allocs =
      obs::MetricsRegistry::global().counter("plan.exec.allocs");
  const std::int64_t allocs0 = allocs.value();
  for (const Tensor* in : {&b1, &b32}) {
    ledger_plan(options, *m.fp32, *in, "fp32", gflops, report);
    ledger_plan(options, *m.int8, *in, "int8", gops, report);
  }
  const double steady = static_cast<double>(allocs.value() - allocs0);
  report.metric("plan.exec.allocs.steady", steady, "count");
  report.check(steady == 0.0, "no arena allocations in steady state");
}

}  // namespace repobench
