#include "dcnas/nn/conv.hpp"

#include <algorithm>
#include <vector>

#include "dcnas/common/thread_pool.hpp"
#include "dcnas/nn/init.hpp"
#include "dcnas/tensor/gemm.hpp"
#include "dcnas/tensor/im2col.hpp"

namespace dcnas::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t padding,
               bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  DCNAS_CHECK(in_channels > 0 && out_channels > 0, "conv channels must be > 0");
  // Unlike pooling, convolution permits padding >= kernel (PyTorch does
  // too); the NAS search space pairs kernel 3 with padding 3.
  DCNAS_CHECK(kernel > 0 && stride > 0 && padding >= 0, "bad conv geometry");
  weight_ = Tensor({out_channels_, in_channels_ * kernel_ * kernel_});
  weight_grad_ = Tensor(weight_.shape());
  const std::int64_t fan_out = out_channels_ * kernel_ * kernel_;
  kaiming_normal(weight_, fan_out, rng);
  if (has_bias_) {
    bias_ = Tensor({out_channels_});
    bias_grad_ = Tensor({out_channels_});
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  DCNAS_CHECK(input.ndim() == 4, "Conv2d expects NCHW input");
  DCNAS_CHECK(input.dim(1) == in_channels_,
              "Conv2d channel mismatch: got " + std::to_string(input.dim(1)) +
                  ", expected " + std::to_string(in_channels_));
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const Im2colSpec spec{in_channels_, h, w, kernel_, stride_, padding_, n};
  const std::int64_t oh = spec.out_h();
  const std::int64_t ow = spec.out_w();
  const std::int64_t col_cols = oh * ow;

  if (training_) cached_input_ = input;
  Tensor output({n, out_channels_, oh, ow});

  // One fused GEMM over the whole batch (N = n·OH·OW): B panels are packed
  // straight from the images inside the GEMM driver, so the column matrix
  // is never materialized, and the driver fans out over its own tiles.
  gemm_im2col(out_channels_, 1.0f, weight_.data(), input.data(), spec, 0.0f,
              output.data());
  if (has_bias_) {
    for (std::int64_t r = 0; r < n * out_channels_; ++r) {
      const float b = bias_[r % out_channels_];
      float* row = output.data() + r * col_cols;
      for (std::int64_t i = 0; i < col_cols; ++i) row[i] += b;
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  DCNAS_CHECK(!cached_input_.empty(),
              "Conv2d::backward called without a cached forward pass");
  const Tensor& input = cached_input_;
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t col_cols = oh * ow;

  Tensor grad_input(input.shape());

  // Samples are partitioned into a fixed number of groups; each group
  // accumulates dW/db into its own buffer and the buffers are reduced in
  // ascending group order afterwards. The group count depends only on the
  // sample count and the (machine-fixed) pool size — never on the thread
  // schedule — so gradients are bitwise reproducible run-to-run. With a
  // single worker this collapses to the seed's sample-serial accumulation
  // with zero extra buffering.
  const auto workers = static_cast<std::int64_t>(ThreadPool::global().size());
  const std::int64_t groups =
      workers > 1 ? std::min<std::int64_t>({n, 2 * workers, 16}) : 1;
  const std::int64_t wsize = weight_grad_.numel();
  std::vector<float> wg_parts;
  std::vector<float> bg_parts;
  if (groups > 1) {
    wg_parts.assign(static_cast<std::size_t>(groups * wsize), 0.0f);
    if (has_bias_) {
      bg_parts.assign(static_cast<std::size_t>(groups * out_channels_), 0.0f);
    }
  }

  parallel_for_chunked(0, groups, [&](std::int64_t glo, std::int64_t ghi) {
    std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));
    std::vector<float> grad_col(
        static_cast<std::size_t>(col_rows * col_cols));
    for (std::int64_t g = glo; g < ghi; ++g) {
      const std::int64_t s0 = g * n / groups;
      const std::int64_t s1 = (g + 1) * n / groups;
      float* wg = groups > 1 ? wg_parts.data() + g * wsize
                             : weight_grad_.data();
      float* bg = nullptr;
      if (has_bias_) {
        bg = groups > 1 ? bg_parts.data() + g * out_channels_
                        : bias_grad_.data();
      }
      for (std::int64_t s = s0; s < s1; ++s) {
        const float* im = input.data() + s * in_channels_ * h * w;
        const float* go = grad_output.data() + s * out_channels_ * col_cols;
        im2col(im, in_channels_, h, w, kernel_, stride_, padding_, col.data());
        // dW += dY · colᵀ
        gemm_bt(out_channels_, col_rows, col_cols, 1.0f, go, col.data(), 1.0f,
                wg);
        // dCol = Wᵀ · dY
        gemm_at(col_rows, col_cols, out_channels_, 1.0f, weight_.data(), go,
                0.0f, grad_col.data());
        float* gi = grad_input.data() + s * in_channels_ * h * w;
        col2im(grad_col.data(), in_channels_, h, w, kernel_, stride_, padding_,
               gi);
        if (bg) {
          for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
            const float* row = go + oc * col_cols;
            float acc = 0.0f;
            for (std::int64_t i = 0; i < col_cols; ++i) acc += row[i];
            bg[oc] += acc;
          }
        }
      }
    }
  });

  if (groups > 1) {
    for (std::int64_t g = 0; g < groups; ++g) {
      const float* wg = wg_parts.data() + g * wsize;
      float* dst = weight_grad_.data();
      for (std::int64_t i = 0; i < wsize; ++i) dst[i] += wg[i];
      if (has_bias_) {
        const float* bg = bg_parts.data() + g * out_channels_;
        for (std::int64_t oc = 0; oc < out_channels_; ++oc) {
          bias_grad_[oc] += bg[oc];
        }
      }
    }
  }
  return grad_input;
}

void Conv2d::collect_params(const std::string& prefix,
                            std::vector<ParamRef>& out) {
  out.push_back({prefix + ".weight", &weight_, &weight_grad_});
  if (has_bias_) out.push_back({prefix + ".bias", &bias_, &bias_grad_});
}

}  // namespace dcnas::nn
