#pragma once
/// \file harness.hpp
/// \brief Shared pieces of the repobench binary: run options, the result
/// report (the one JSON line the benchmark prints last), sample statistics,
/// host facts, and the serving-model fixture.
///
/// Every workload reports the same end-to-end metric names (setup_s,
/// peak_rss_mb, p50_ms, p90_ms, throughput_per_s); each workload defines
/// what its unit of work is. The traced run (--trace 1) instead prints the
/// per-layer ledger, which measures every layer through the workload that
/// exercises it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dcnas/tensor/tensor.hpp"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Command-line settings. run.py fills the serving rates, the deadline and
/// the check thresholds from repobench/config.json.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 6.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes everywhere; for the benchmark's test
  std::string workdir = ".bench_work";

  double rate_low = 100.0;    ///< img/s, serve_open.low
  double rate_high = 700.0;   ///< img/s, serve_open.high
  double rate_over = 2200.0;  ///< img/s, serve_open.over
  double deadline_ms = 25.0;  ///< per-request SLO tag and goodput limit
  double output_tol = 1e-3;   ///< max |served - direct b1| per logit
  double int8_agree_floor = 0.9;  ///< int8 argmax == fp32 argmax share
  double plan_accounted_min = 90.0, plan_accounted_max = 110.0;  ///< percent
  double nas_accounted_min = 50.0, nas_accounted_max = 150.0;    ///< percent
};

/// The run's result: metrics by name, attempted/failed counts, and the
/// verdict of every output check. Prints the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempted(std::int64_t n) { attempted_ += n; }
  void failed(std::int64_t n) { failed_ += n; }
  /// Records one output check; a false check makes the run incorrect.
  void check(bool ok, const std::string& what);
  /// The last line of standard output.
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// Linear-interpolated quantile (dcnas::quantile); 0 for an empty sample.
double pct(const std::vector<double>& xs, double q);
double mean_of(const std::vector<double>& xs);

/// Tail latency that one burst of host preemption cannot set on its own:
/// the \p q quantile within each of \p blocks equal slices of the measured
/// window, then the median over the slices. \p at_s holds each sample's
/// offset into the window, in seconds.
double blocked_quantile(const std::vector<double>& values,
                        const std::vector<double>& at_s, double window_s,
                        double q, int blocks = 8);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Host and build facts printed before the result: nproc, the gemm_s8
/// dispatch tier, build type, -march=native, the work directory's
/// filesystem, and the seed.
void print_host(const Options& options);

/// Filesystem type name of \p path (ext4, tmpfs, overlay, ...).
std::string filesystem_type(const std::string& path);

/// Row argmax of a (B, classes) tensor.
std::vector<int> argmax_rows(const dcnas::Tensor& logits);
/// max |a - b| over two same-shaped tensors (inf on a shape mismatch).
double max_abs_diff(const dcnas::Tensor& a, const dcnas::Tensor& b);
/// Row \p i of an NCHW batch as a (1, C, H, W) tensor.
dcnas::Tensor row_of(const dcnas::Tensor& batch, std::int64_t i);
/// Rows idx[0..n) of an NCHW batch stacked into one (n, C, H, W) tensor.
dcnas::Tensor rows_of(const dcnas::Tensor& batch,
                      const std::vector<std::int64_t>& idx);

/// The serving artifact and its input chips, made from the seed.
struct ServingFixture {
  std::string model_path;  ///< .dcnx of the 24 px serving model
  dcnas::Tensor chips;     ///< (N, 5, 24, 24) drainage chips
};

/// Trains the 24 px serving model for one SGD epoch on a synthetic
/// drainage dataset drawn from \p options.seed, saves it as .dcnx in the
/// work directory, and keeps the dataset's chips as request inputs. Runs
/// in a child process so the training peak stays out of this process's
/// peak_rss_mb; call it before any thread is started.
ServingFixture make_serving_fixture(const Options& options);

/// The serving model's registry name.
inline constexpr const char* kModelName = "drainage";
inline constexpr std::int64_t kChipSize = 24;

}  // namespace repobench
