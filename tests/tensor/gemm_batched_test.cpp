/// Batched conv lowering: one gemm_im2col / gemm_s8_im2col call over B
/// images (N = B·OH·OW) must write, byte for byte, what B separate batch-1
/// calls write. Each output element reduces over the same K-blocks in the
/// same order whatever the batch, so the contract is bitwise, not a
/// tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "dcnas/common/rng.hpp"
#include "dcnas/tensor/gemm.hpp"
#include "dcnas/tensor/gemm_s8.hpp"

namespace dcnas {
namespace {

struct BatchCase {
  std::int64_t channels, hw, kernel, stride, padding, out_ch;
};

std::ostream& operator<<(std::ostream& os, const BatchCase& c) {
  return os << c.channels << "x" << c.hw << "x" << c.hw << " k" << c.kernel
            << "s" << c.stride << "p" << c.padding << " -> " << c.out_ch;
}

constexpr std::int64_t kBatches[] = {1, 2, 7, 32};

Im2colSpec spec_of(const BatchCase& c, std::int64_t batch) {
  return {c.channels, c.hw, c.hw, c.kernel, c.stride, c.padding, batch};
}

std::vector<float> random_vec(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<std::int8_t> random_q(std::int64_t n, Rng& rng) {
  std::vector<std::int8_t> q(static_cast<std::size_t>(n));
  for (auto& v : q) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return q;
}

class GemmIm2colBatchTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(GemmIm2colBatchTest, Fp32BatchEqualsPerSampleCallsBitwise) {
  const BatchCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.channels * 131 + c.hw * 17 +
                                     c.kernel * 7 + c.out_ch));
  const Im2colSpec one = spec_of(c, 1);
  const std::int64_t in_numel = c.channels * c.hw * c.hw;
  const std::int64_t out_numel = c.out_ch * one.out_h() * one.out_w();
  const std::vector<float> w =
      random_vec(c.out_ch * c.channels * c.kernel * c.kernel, rng);
  const std::vector<float> im = random_vec(32 * in_numel, rng);
  for (const std::int64_t batch : kBatches) {
    std::vector<float> want(static_cast<std::size_t>(batch * out_numel));
    for (std::int64_t s = 0; s < batch; ++s) {
      gemm_im2col(c.out_ch, 1.0f, w.data(), im.data() + s * in_numel, one,
                  0.0f, want.data() + s * out_numel);
    }
    std::vector<float> got(want.size(), -1.0f);
    gemm_im2col(c.out_ch, 1.0f, w.data(), im.data(), spec_of(c, batch), 0.0f,
                got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << c << " batch=" << batch;
  }
}

TEST_P(GemmIm2colBatchTest, Int8BatchEqualsPerSampleCallsBitwise) {
  const BatchCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.channels * 37 + c.hw * 5 +
                                     c.kernel * 3 + c.out_ch));
  const Im2colSpec one = spec_of(c, 1);
  const std::int64_t in_numel = c.channels * c.hw * c.hw;
  const std::int64_t out_numel = c.out_ch * one.out_h() * one.out_w();
  const std::vector<std::int8_t> w =
      random_q(c.out_ch * c.channels * c.kernel * c.kernel, rng);
  const std::vector<std::int8_t> im = random_q(32 * in_numel, rng);
  const std::vector<float> scale = random_vec(c.out_ch, rng);
  const std::vector<float> bias = random_vec(c.out_ch, rng);
  for (const bool relu : {false, true}) {
    QuantEpilogue epi;
    epi.scale = scale.data();
    epi.bias = bias.data();
    epi.relu = relu;
    for (const std::int64_t batch : kBatches) {
      std::vector<float> want(static_cast<std::size_t>(batch * out_numel));
      for (std::int64_t s = 0; s < batch; ++s) {
        gemm_s8_im2col(c.out_ch, w.data(), im.data() + s * in_numel, one, epi,
                       want.data() + s * out_numel);
      }
      std::vector<float> got(want.size(), -1.0f);
      gemm_s8_im2col(c.out_ch, w.data(), im.data(), spec_of(c, batch), epi,
                     got.data());
      EXPECT_EQ(
          std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
          << c << " batch=" << batch << " relu=" << relu;
    }
  }
}

// Weights packed once ahead of time (what compiled plans hold) give the
// same bits as packing them on every call.
TEST_P(GemmIm2colBatchTest, PrePackedWeightsMatchPerCallPackingBitwise) {
  const BatchCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.channels * 31 + c.out_ch));
  const std::int64_t k = c.channels * c.kernel * c.kernel;
  const std::vector<float> w = random_vec(c.out_ch * k, rng);
  // Packed one micro-panel at a time, as the plan compiler does, over a
  // buffer whose pad lanes start non-zero.
  std::vector<float> packed(
      static_cast<std::size_t>(packed_gemm_a_size(c.out_ch, k)), -1.0f);
  for (std::int64_t i0 = 0; i0 < c.out_ch; i0 += kGemmPanelRows) {
    pack_gemm_a_rows(c.out_ch, k, i0, std::min(kGemmPanelRows, c.out_ch - i0),
                     w.data() + i0 * k, packed.data());
  }
  // Every element sits where packed_gemm_a_index says and reads back, and
  // the pad lanes (rows up to the next micro-panel) are zero.
  PackedGemmARows rows(c.out_ch, k, packed.data());
  const std::int64_t padded = static_cast<std::int64_t>(packed.size()) / k;
  for (std::int64_t i = 0; i < padded; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float want =
          i < c.out_ch ? w[static_cast<std::size_t>(i * k + p)] : 0.0f;
      ASSERT_EQ(packed[static_cast<std::size_t>(
                    packed_gemm_a_index(c.out_ch, k, i, p))],
                want)
          << c << " row " << i << " col " << p;
      if (i < c.out_ch) {
        ASSERT_EQ(rows.row(i)[p], want);
      }
    }
  }
  const std::vector<float> im =
      random_vec(32 * c.channels * c.hw * c.hw, rng);
  for (const std::int64_t batch : kBatches) {
    const Im2colSpec spec = spec_of(c, batch);
    const std::size_t out =
        static_cast<std::size_t>(batch * c.out_ch * spec.out_h() *
                                 spec.out_w());
    std::vector<float> want(out), got(out);
    gemm_im2col(c.out_ch, 1.0f, w.data(), im.data(), spec, 0.0f, want.data());
    gemm_im2col_packed(c.out_ch, 1.0f, packed.data(), im.data(), spec, 0.0f,
                       got.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), out * sizeof(float)), 0)
        << c << " batch=" << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GemmIm2colBatchTest,
    ::testing::Values(
        // GemmIm2colTest's geometry list.
        BatchCase{1, 5, 1, 1, 0, 3}, BatchCase{2, 9, 3, 1, 1, 4},
        BatchCase{3, 8, 3, 2, 1, 5}, BatchCase{2, 7, 3, 1, 3, 4},
        BatchCase{1, 9, 7, 2, 3, 2}, BatchCase{4, 16, 5, 3, 2, 6},
        BatchCase{8, 14, 3, 1, 1, 32},
        // OH·OW not a multiple of 16: 36 and 9 pixels per image.
        BatchCase{4, 6, 3, 1, 1, 8}, BatchCase{8, 6, 3, 2, 1, 12},
        // K > 256: two K-blocks, and the int8 accumulator path.
        BatchCase{32, 6, 3, 1, 1, 32}, BatchCase{64, 2, 3, 1, 1, 256},
        // k1/s1/p0: the identity gather.
        BatchCase{16, 4, 1, 1, 0, 8}));

// A NaN in sample s must reach only sample s's outputs.
TEST(GemmIm2colBatchTest, NaNStaysInItsOwnSample) {
  const BatchCase c{3, 6, 3, 1, 1, 5};
  const std::int64_t batch = 7, poisoned = 3;
  Rng rng(29);
  const Im2colSpec one = spec_of(c, 1);
  const std::int64_t in_numel = c.channels * c.hw * c.hw;
  const std::int64_t out_numel = c.out_ch * one.out_h() * one.out_w();
  const std::vector<float> w =
      random_vec(c.out_ch * c.channels * c.kernel * c.kernel, rng);
  std::vector<float> im = random_vec(batch * in_numel, rng);
  im[static_cast<std::size_t>(poisoned * in_numel + 2 * c.hw + 2)] =
      std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(static_cast<std::size_t>(batch * out_numel));
  gemm_im2col(c.out_ch, 1.0f, w.data(), im.data(), spec_of(c, batch), 0.0f,
              out.data());
  for (std::int64_t s = 0; s < batch; ++s) {
    std::int64_t nans = 0;
    for (std::int64_t i = 0; i < out_numel; ++i) {
      nans += std::isnan(out[static_cast<std::size_t>(s * out_numel + i)]);
    }
    if (s == poisoned) {
      // Every output channel over the 3x3 neighbourhood of pixel (2, 2).
      EXPECT_EQ(nans, c.out_ch * 9) << "sample " << s;
    } else {
      EXPECT_EQ(nans, 0) << "sample " << s;
    }
  }
}

}  // namespace
}  // namespace dcnas
