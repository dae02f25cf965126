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

#include <algorithm>
#include <cstdint>
#include <vector>

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

/// gemm_im2col with A packed once, ahead of time (pack_gemm_a_rows), instead
/// of on every call: the form compiled inference plans keep conv weights in.
/// Bitwise the same output as gemm_im2col on the unpacked A.
void gemm_im2col_packed(std::int64_t m, float alpha, const float* a_packed,
                        const float* im, const Im2colSpec& spec, float beta,
                        float* c);

/// Micro-panel rows and K-block columns of the packed-A layout.
inline constexpr std::int64_t kGemmPanelRows = 4;
inline constexpr std::int64_t kGemmBlockK = 256;

/// The packed-A layout the drivers stream: for each K-block of
/// kGemmBlockK columns (the last may be shorter), in order, the M rows as
/// micro-panels of kGemmPanelRows rows, each stored column-major. A short
/// last panel's missing rows are "pad lanes" and hold zero. M-blocks are
/// whole panels, so the block at any row is an offset into this buffer.
/// Floats needed for M x K:
inline std::int64_t packed_gemm_a_size(std::int64_t m, std::int64_t k) {
  return (m + kGemmPanelRows - 1) / kGemmPanelRows * kGemmPanelRows * k;
}

/// Where A(i, p) lives in packed A (M x K). For m <= i < the panel-rounded
/// row count the same formula names the pad lanes.
inline std::int64_t packed_gemm_a_index(std::int64_t m, std::int64_t k,
                                        std::int64_t i, std::int64_t p) {
  const std::int64_t pc = p / kGemmBlockK * kGemmBlockK;
  const std::int64_t kc = std::min(kGemmBlockK, k - pc);
  const std::int64_t i0 = i / kGemmPanelRows * kGemmPanelRows;
  return packed_gemm_a_size(m, pc) + i0 * kc + (p - pc) * kGemmPanelRows +
         (i - i0);
}

/// Packs rows [i0, i0 + rows) of A (M x K), given row-major at \p a, into
/// \p packed (packed_gemm_a_size floats). i0 is a multiple of
/// kGemmPanelRows, and so is \p rows unless the block ends at row M; that
/// last block also writes the pad lanes (zero). Packing a few panels at a
/// time needs no M x K staging copy.
void pack_gemm_a_rows(std::int64_t m, std::int64_t k, std::int64_t i0,
                      std::int64_t rows, const float* a, float* packed);

/// Reads the rows of a packed A (M x K) back out, one micro-panel at a
/// time, so each cache line of the packed buffer is read once when rows
/// are read in order.
class PackedGemmARows {
 public:
  PackedGemmARows(std::int64_t m, std::int64_t k, const float* packed);

  /// Row \p i of A (K floats); valid until a row of another micro-panel is
  /// read.
  const float* row(std::int64_t i);

 private:
  std::int64_t m_, k_;
  const float* packed_;
  std::int64_t panel_ = -1;  ///< first row of the panel held in rows_
  std::vector<float> rows_;  ///< kGemmPanelRows rows of K floats
};

/// Tensor-level convenience: returns A·B for 2-D tensors.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace dcnas
