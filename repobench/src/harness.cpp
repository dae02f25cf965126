#include "harness.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "dcnas/common/error.hpp"
#include "dcnas/common/stats.hpp"
#include "dcnas/geodata/dataset.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/trainer.hpp"
#include "dcnas/tensor/gemm_s8.hpp"

namespace repobench {

using namespace dcnas;

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct_ = false;
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    // JSON has no NaN/Inf; a non-finite value is reported as -1 so the
    // name check still passes and the number is visibly wrong.
    out << (std::isfinite(vu.first) ? vu.first : -1.0) << ", \"unit\": \""
        << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double pct(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : quantile(xs, q);
}

double mean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : mean(std::span<const double>(xs));
}

double blocked_quantile(const std::vector<double>& values,
                        const std::vector<double>& at_s, double window_s,
                        double q, int blocks) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(blocks));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int b = std::clamp(static_cast<int>(at_s[i] / window_s * blocks), 0,
                             blocks - 1);
    slices[static_cast<std::size_t>(b)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (const auto& s : slices) {
    if (!s.empty()) per_slice.push_back(pct(s, q));
  }
  return pct(per_slice, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string filesystem_type(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

void print_host(const Options& options) {
  std::printf(
      "host {\"nproc\": %u, \"gemm_s8\": \"%s\", \"build_type\": \"%s\", "
      "\"march_native\": %s, \"workdir_fs\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"trace\": %d, \"smoke\": %d}\n",
      std::thread::hardware_concurrency(), gemm_s8_kernel_name(),
      REPOBENCH_BUILD_TYPE, REPOBENCH_MARCH_NATIVE ? "true" : "false",
      filesystem_type(options.workdir).c_str(),
      static_cast<unsigned long long>(options.seed), options.workload.c_str(),
      options.trace ? 1 : 0, options.smoke ? 1 : 0);
}

std::vector<int> argmax_rows(const Tensor& logits) {
  std::vector<int> out;
  const std::int64_t rows = logits.dim(0);
  const std::int64_t cols = logits.numel() / std::max<std::int64_t>(rows, 1);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = logits.data() + r * cols;
    out.push_back(static_cast<int>(std::max_element(row, row + cols) - row));
  }
  return out;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - b[i]);
    if (!(d <= worst)) worst = d;  // also propagates NaN as a failure
  }
  return worst;
}

Tensor rows_of(const Tensor& batch, const std::vector<std::int64_t>& idx) {
  const std::int64_t per = batch.numel() / batch.dim(0);
  Tensor out({static_cast<std::int64_t>(idx.size()), batch.dim(1),
              batch.dim(2), batch.dim(3)});
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::memcpy(out.data() + static_cast<std::int64_t>(i) * per,
                batch.data() + idx[i] * per,
                static_cast<std::size_t>(per) * sizeof(float));
  }
  return out;
}

Tensor row_of(const Tensor& batch, std::int64_t i) {
  return rows_of(batch, {i});
}

namespace {

/// The training half of the fixture, run in the child process.
void train_and_save(const Options& options, const std::string& model_path,
                    const std::string& chips_path) {
  geodata::DatasetOptions dopt;
  dopt.scale = options.smoke ? 1.0 / 1024.0 : 1.0 / 256.0;
  dopt.chip_size = kChipSize;
  dopt.scene_size = 128;
  dopt.channels = 5;
  dopt.seed = options.seed;
  const auto ds = geodata::build_dataset(dopt);

  nas::TrialConfig cfg = nas::TrialConfig::baseline(5, 8);
  cfg.initial_output_feature = 32;
  cfg.kernel_size = 3;
  cfg.padding = 1;
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 17);
  nn::ConfigurableResNet model(cfg.to_resnet_config(), rng);
  nn::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = cfg.batch;
  topt.lr = 0.02;
  topt.seed = options.seed;
  nn::fit(model, ds.images, ds.labels, topt);
  model.set_training(false);

  graph::GraphExecutor exec(
      graph::build_resnet_graph(cfg.to_resnet_config(), kChipSize), model);
  exec.fold_batchnorm();
  graph::save_model(exec, model_path);

  std::ofstream chips(chips_path, std::ios::binary | std::ios::trunc);
  const std::int64_t dims[4] = {ds.images.dim(0), ds.images.dim(1),
                                ds.images.dim(2), ds.images.dim(3)};
  chips.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  chips.write(reinterpret_cast<const char*>(ds.images.data()),
              static_cast<std::streamsize>(ds.images.numel() * sizeof(float)));
  DCNAS_CHECK(chips.good(), "cannot write " + chips_path);
}

}  // namespace

ServingFixture make_serving_fixture(const Options& options) {
  ServingFixture fx;
  fx.model_path = options.workdir + "/model.dcnx";
  const std::string chips_path = options.workdir + "/chips.bin";
  std::fflush(nullptr);
  const pid_t pid = fork();
  DCNAS_CHECK(pid >= 0, "fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      train_and_save(options, fx.model_path, chips_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fixture: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  DCNAS_CHECK(waitpid(pid, &status, 0) == pid, "waitpid failed");
  DCNAS_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "fixture training failed");

  std::ifstream in(chips_path, std::ios::binary);
  std::int64_t dims[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  fx.chips = Tensor({dims[0], dims[1], dims[2], dims[3]});
  in.read(reinterpret_cast<char*>(fx.chips.data()),
          static_cast<std::streamsize>(fx.chips.numel() * sizeof(float)));
  DCNAS_CHECK(in.good() && dims[0] > 0, "cannot read " + chips_path);
  std::filesystem::remove(chips_path);
  return fx;
}

}  // namespace repobench
