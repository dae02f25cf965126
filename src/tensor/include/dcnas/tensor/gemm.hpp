#pragma once
/// \file gemm.hpp
/// \brief Packed, register-blocked, thread-parallel single-precision GEMM.
///
/// This GEMM is the computational heart of the training stack: convolution
/// lowers to (possibly fused) im2col + GEMM, and Linear layers call it
/// directly. All variants share one BLIS-style driver: A and B are packed
/// into contiguous cache-sized panels, a 4x16 register-tiled micro-kernel
/// (written so the compiler auto-vectorizes it; build with -O3 and
/// DCNAS_NATIVE=ON for FMA/AVX code) produces each C tile, and row-panel
/// blocks are distributed across the global thread pool.
///
/// Numeric contract:
///  - No element-level zero short-circuits: a zero in A multiplied by a
///    NaN/Inf in B yields NaN, exactly as in a naive triple loop, so
///    corrupted activations propagate instead of being silently swallowed.
///  - alpha == 0 skips the product entirely (C = beta*C), matching BLAS.
///  - Results are bitwise deterministic for given shapes and inputs,
///    independent of thread count: each C element is accumulated by exactly
///    one micro-kernel chain in a fixed K-block order.

#include <cstdint>

#include "dcnas/tensor/tensor.hpp"

namespace dcnas {

/// C(MxN) = alpha * A(MxK) * B(KxN) + beta * C.
/// A, B, C are dense row-major buffers (no aliasing between C and A/B).
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C(MxN) = A(MxK) * B^T (N x K stored row-major) — used in backward passes
/// where one operand is naturally transposed.
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b_t, float beta, float* c);

/// C(MxN) = A^T (K x M stored row-major) * B(KxN).
void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a_t, const float* b, float beta, float* c);

/// Geometry of a virtual im2col operand for the fused convolution GEMM:
/// `batch` images of `channels` x `height` x `width`, stored NCHW.
struct Im2colSpec {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t batch = 1;

  std::int64_t out_h() const;
  std::int64_t out_w() const;
};

/// Fused convolution forward over a whole batch, as one GEMM with
/// N = B·OH·OW: C = alpha * A(M x C*K*K) * im2col(im) + beta * C, where
/// the column matrix is never materialized — B slivers are packed straight
/// from the NCHW images (column j gathers from image j / (OH·OW); zero
/// padding synthesized in place). \p im points at B x C x H x W planes and
/// \p c at the B x M x OH x OW output. At alpha = 1, image b's output is
/// bitwise the same as a batch-1 call on image b alone: each output
/// element reduces over the same K-blocks in the same order whatever the
/// batch.
void gemm_im2col(std::int64_t m, float alpha, const float* a, const float* im,
                 const Im2colSpec& spec, float beta, float* c);

/// Tensor-level convenience: returns A·B for 2-D tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace dcnas
