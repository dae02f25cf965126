/// repobench — the repository benchmark. Usually started through
/// repobench/run.py, which builds this binary and passes the settings of
/// repobench/config.json:
///
///   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--smoke] [--workdir <dir>] [--rate-low/--rate-high/
///             --rate-over <img/s>] [--deadline-ms <ms>] [--output-tol <x>]
///             [--int8-agree-floor <share>] [--plan-accounted <min>,<max>]
///             [--nas-accounted <min>,<max>]
///
/// --trace 0 runs the named workload untraced and reports the end-to-end
/// metrics. --trace 1 runs the per-layer ledger with tracing on: every
/// layer measured through the workload that exercises it, plus the tracing
/// overhead of the named workload (its headline measured untraced, then
/// traced, at equal length). The last line of standard output is the JSON
/// result.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "dcnas/common/cli.hpp"
#include "dcnas/latency/predictor.hpp"
#include "dcnas/obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace repobench;

// serve_open.low runs only inside the ledger: with the replicas idle
// between requests its tail follows the host's vCPU wake-up latency, too
// unsteady run to run for an end-to-end bound.
const std::set<std::string> kWorkloads = {
    "serve_open.high",   "serve_open.over",   "serve_wire",
    "infer_direct.fp32", "infer_direct.int8", "nas_sweep"};

void parse_pair(const std::string& text, double* lo, double* hi) {
  const auto comma = text.find(',');
  if (comma == std::string::npos) return;
  *lo = std::stod(text.substr(0, comma));
  *hi = std::stod(text.substr(comma + 1));
}

dcnas::graph::Precision precision_of(const std::string& workload) {
  return workload == "infer_direct.int8" ? dcnas::graph::Precision::kInt8
                                         : dcnas::graph::Precision::kFp32;
}

Headline headline(const Options& options, const ServingFixture& fixture,
                  double seconds, Report& report) {
  const std::string& w = options.workload;
  if (w == "nas_sweep") return nas_headline(options, seconds, report);
  if (w.rfind("infer_direct", 0) == 0) {
    return infer_headline(options, fixture, precision_of(w), seconds, report);
  }
  return serve_headline(options, fixture, w, seconds, report);
}

void run_untraced(const Options& options, Report& report) {
  const std::string& w = options.workload;
  if (w == "nas_sweep") {
    run_nas(options, report);
    return;
  }
  const ServingFixture fixture = make_serving_fixture(options);
  if (w.rfind("infer_direct", 0) == 0) {
    run_infer(options, fixture, report, precision_of(w));
  } else if (w == "serve_wire") {
    run_serve_wire(options, fixture, report);
  } else {
    run_serve_open(options, fixture, report,
                   w == "serve_open.high" ? Phase::kHigh : Phase::kOver);
  }
}

void run_ledger(const Options& options, Report& report) {
  const ServingFixture fixture = make_serving_fixture(options);
  // nn-Meter training, timed once here; the sweeps below reuse the
  // trained shared instance.
  const auto t0 = Clock::now();
  dcnas::latency::NnMeter::shared();
  report.metric("latency.train_s", seconds_between(t0, Clock::now()), "s");

  auto& recorder = dcnas::obs::TraceRecorder::global();
  dcnas::obs::TraceOptions topt;
  topt.ring_capacity = 1 << 15;

  // Tracing overhead of the named workload: its headline untraced, then
  // traced, at equal length.
  const double pair_s = options.smoke ? 0.3 : options.seconds / 4.0;
  const Headline plain = headline(options, fixture, pair_s, report);
  recorder.enable(topt);
  const Headline traced = headline(options, fixture, pair_s, report);
  report.metric("trace.overhead_pct.p50_ms",
                100.0 * (traced.p50_ms - plain.p50_ms) / plain.p50_ms, "%");
  report.metric("trace.overhead_pct.throughput_per_s",
                100.0 * (plain.throughput_per_s - traced.throughput_per_s) /
                    plain.throughput_per_s,
                "%");

  ledger_infer(options, fixture, report);
  ledger_serve(options, fixture, options.smoke ? 0.3 : options.seconds / 6.0,
               report);
  ledger_nas(options, report);
  recorder.disable();
  report.metric("peak_rss_mb.traced", peak_rss_mb(), "MB");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dcnas::CliArgs args(argc, argv);
    Options options;
    options.workload = args.get("workload", "");
    if (kWorkloads.count(options.workload) == 0) {
      std::fprintf(stderr, "repobench: unknown --workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 6.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.smoke = args.get_flag("smoke");
    options.rate_low = args.get_double("rate-low", options.rate_low);
    options.rate_high = args.get_double("rate-high", options.rate_high);
    options.rate_over = args.get_double("rate-over", options.rate_over);
    options.deadline_ms = args.get_double("deadline-ms", options.deadline_ms);
    options.output_tol = args.get_double("output-tol", options.output_tol);
    options.int8_agree_floor =
        args.get_double("int8-agree-floor", options.int8_agree_floor);
    parse_pair(args.get("plan-accounted", ""), &options.plan_accounted_min,
               &options.plan_accounted_max);
    parse_pair(args.get("nas-accounted", ""), &options.nas_accounted_min,
               &options.nas_accounted_max);
    // One private directory per run for the model, sockets and stores.
    options.workdir = args.get("workdir", ".bench_work") + "/run" +
                      std::to_string(static_cast<long long>(getpid()));
    std::filesystem::create_directories(options.workdir);

    print_host(options);
    Report report;
    if (options.trace) {
      run_ledger(options, report);
    } else {
      run_untraced(options, report);
    }
    std::filesystem::remove_all(options.workdir);
    std::fflush(stdout);
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s\n", e.what());
    return 1;
  }
}
