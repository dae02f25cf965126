/// Stem and pool geometry sweep of the compiled plan at the serving input
/// size. The serving model covers one stem/pool geometry; this covers all
/// 60 of the search space's classes at 24 px and width 32: conv1 kernel
/// {3, 7} x stride {1, 2} x padding {1, 2, 3} x {no pool, pool k{2, 3} x
/// s{1, 2}}. For each class:
///  - the fp32 plan matches the op-by-op GraphExecutor within 1e-3 (the
///    repository benchmark's output tolerance);
///  - every row of a batch-7 run equals the batch-1 run of that row
///    bitwise, for the fp32 plan and for the int8 plan calibrated on 8
///    random chips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/executor.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/plan/compiler.hpp"
#include "dcnas/plan/executor.hpp"

namespace dcnas::plan {
namespace {

constexpr std::int64_t kHw = 24;
constexpr std::int64_t kBatch = 7;
constexpr double kOutputTol = 1e-3;

Tensor row_of(const Tensor& x, std::int64_t r) {
  Shape shape = x.shape();
  shape[0] = 1;
  Tensor out(shape);
  const std::int64_t per = x.numel() / x.dim(0);
  std::memcpy(out.data(), x.data() + r * per,
              static_cast<std::size_t>(per) * sizeof(float));
  return out;
}

/// Row r of a batch run equals the batch-1 run of input row r, bitwise.
void expect_rows_match_singles(const PlanExecutor& exec, const Tensor& x,
                               const std::string& what) {
  const Tensor batched = exec.run(x);
  const std::int64_t per = batched.numel() / batched.dim(0);
  for (std::int64_t r = 0; r < x.dim(0); ++r) {
    const Tensor single = exec.run(row_of(x, r));
    ASSERT_EQ(single.numel(), per);
    EXPECT_EQ(std::memcmp(batched.data() + r * per, single.data(),
                          static_cast<std::size_t>(per) * sizeof(float)),
              0)
        << what << " row=" << r;
  }
}

/// One stem/pool class of the search space; `index` seeds its model.
struct StemPool {
  int index;
  std::int64_t kernel, stride, padding;
  bool with_pool;
  std::int64_t pool_kernel, pool_stride;
};

std::vector<StemPool> all_classes() {
  struct Pool {
    bool with;
    std::int64_t kernel, stride;
  };
  const Pool pools[] = {{false, 3, 2}, {true, 2, 1}, {true, 2, 2},
                        {true, 3, 1},  {true, 3, 2}};
  std::vector<StemPool> out;
  for (const std::int64_t kernel : {3, 7}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {1, 2, 3}) {
        for (const Pool& pool : pools) {
          out.push_back({static_cast<int>(out.size()), kernel, stride,
                         padding, pool.with, pool.kernel, pool.stride});
        }
      }
    }
  }
  return out;
}

nn::ResNetConfig config_of(const StemPool& c) {
  nn::ResNetConfig cfg = nn::ResNetConfig::baseline(5);
  cfg.init_width = 32;
  cfg.conv1_kernel = c.kernel;
  cfg.conv1_stride = c.stride;
  cfg.conv1_padding = c.padding;
  cfg.with_pool = c.with_pool;
  cfg.pool_kernel = c.pool_kernel;
  cfg.pool_stride = c.pool_stride;
  return cfg;
}

/// Test-name suffix, e.g. k3s2p1_pool3s2 or k7s1p3_nopool.
std::string class_name(const StemPool& c) {
  std::ostringstream os;
  os << 'k' << c.kernel << 's' << c.stride << 'p' << c.padding;
  if (c.with_pool) {
    os << "_pool" << c.pool_kernel << 's' << c.pool_stride;
  } else {
    os << "_nopool";
  }
  return os.str();
}

void PrintTo(const StemPool& c, std::ostream* os) { *os << class_name(c); }

TEST(PlanGeometryClassesTest, ListsAllSixtyDistinctClasses) {
  std::set<std::string> keys;
  for (const StemPool& c : all_classes()) keys.insert(config_of(c).to_string());
  EXPECT_EQ(keys.size(), 60u);
}

// One test per class, so each runs (and times out) on its own.
class PlanGeometrySweepTest : public ::testing::TestWithParam<StemPool> {};

TEST_P(PlanGeometrySweepTest, MatchesGraphAndBatchesBitwise) {
  const nn::ResNetConfig cfg = config_of(GetParam());
  const std::string what = cfg.to_string();
  Rng rng(static_cast<unsigned>(101 + GetParam().index));
  nn::ConfigurableResNet model(cfg, rng);
  // One training-mode pass gives BatchNorm non-trivial running statistics
  // to fold.
  model.forward(Tensor::rand_uniform({4, 5, kHw, kHw}, rng, -1.0f, 2.0f));
  model.set_training(false);
  graph::GraphExecutor graph_exec(graph::build_resnet_graph(cfg, kHw), model);

  const Tensor x =
      Tensor::rand_uniform({kBatch, 5, kHw, kHw}, rng, -1.0f, 1.0f);
  const PlanExecutor fp32(compile_plan(graph_exec));
  const Tensor want = graph_exec.run(x);
  const Tensor got = fp32.run(x);
  ASSERT_TRUE(want.same_shape(got)) << what;
  double max_diff = 0.0;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    max_diff =
        std::max(max_diff, std::abs(static_cast<double>(got[i]) - want[i]));
  }
  EXPECT_LE(max_diff, kOutputTol) << what;
  expect_rows_match_singles(fp32, x, what + " fp32");

  const Tensor calibration =
      Tensor::rand_uniform({8, 5, kHw, kHw}, rng, -1.0f, 1.0f);
  CompileOptions int8;
  int8.precision = graph::Precision::kInt8;
  int8.calibration = &calibration;
  const PlanExecutor quantized(compile_plan(graph_exec, int8));
  expect_rows_match_singles(quantized, x, what + " int8");
}

INSTANTIATE_TEST_SUITE_P(StemPoolClasses, PlanGeometrySweepTest,
                         ::testing::ValuesIn(all_classes()),
                         [](const ::testing::TestParamInfo<StemPool>& info) {
                           return class_name(info.param);
                         });

}  // namespace
}  // namespace dcnas::plan
