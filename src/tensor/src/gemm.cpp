#include "dcnas/tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "dcnas/common/thread_pool.hpp"
#include "dcnas/tensor/im2col.hpp"
#include "gemm_grid.hpp"

namespace dcnas {

namespace {

using gemm_detail::CLayout;
using gemm_detail::round_up;

// BLIS-style blocking. The micro-kernel computes an MR x NR tile of C from an
// MR x KC packed A panel and a KC x NR packed B sliver; KC keeps both resident
// in L1/L2 while the tile accumulates in registers. MC bounds the packed A
// working set per thread (a task grid may cut it to as few as
// gemm_detail::kMinMc rows), and kMaxPanel bounds the packed B panel (all
// of K times the panel width), so scratch does not grow with N.
// Correctness does not depend on any of these values.
constexpr std::int64_t kMr = kGemmPanelRows;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKc = kGemmBlockK;
constexpr std::int64_t kMc = 128;
constexpr std::int64_t kMaxPanel = std::int64_t{1} << 18;  // floats (1 MB)
static_assert(kMc % kMr == 0, "A blocks must hold whole micro-panels");

/// out(MRxNR, leading dim ldo) += alpha * Ap * Bp.
///
/// Ap is an MR x kc panel stored column-major (ap[p*MR + i]); Bp is a kc x NR
/// sliver stored row-major (bp[p*NR + j]). The accumulators are true locals
/// (not an out-param array) and all pointers are restrict-qualified so the
/// compiler keeps the 4x16 tile in vector registers and fuses the j-loop into
/// FMAs; with -march=native this is one zmm (or two ymm) per row.
void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float alpha,
                  float* __restrict out, std::int64_t ldo) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict b = bp + p * kNr;
    const float a0 = ap[p * kMr + 0];
    const float a1 = ap[p * kMr + 1];
    const float a2 = ap[p * kMr + 2];
    const float a3 = ap[p * kMr + 3];
    for (int j = 0; j < kNr; ++j) {
      const float bv = b[j];
      acc0[j] += a0 * bv;
      acc1[j] += a1 * bv;
      acc2[j] += a2 * bv;
      acc3[j] += a3 * bv;
    }
  }
  for (int j = 0; j < kNr; ++j) out[0 * ldo + j] += alpha * acc0[j];
  for (int j = 0; j < kNr; ++j) out[1 * ldo + j] += alpha * acc1[j];
  for (int j = 0; j < kNr; ++j) out[2 * ldo + j] += alpha * acc2[j];
  for (int j = 0; j < kNr; ++j) out[3 * ldo + j] += alpha * acc3[j];
}

// ---- A-panel packing -------------------------------------------------------
// Destination layout: micro-panels of kMr rows, each stored column-major
// (dst[i0*kc + p*kMr + i]); short tails are zero-padded so the micro-kernel
// never branches on the row count. Zero padding is benign for NaN propagation:
// padded lanes only feed padded tile slots, which are never copied to C.

/// A(i, p) = a[i * lda + p] (plain row-major A, used by gemm / gemm_bt).
void pack_a_rowmajor(const float* a, std::int64_t lda, std::int64_t rows,
                     std::int64_t kc, float* dst) {
  for (std::int64_t i0 = 0; i0 < rows; i0 += kMr) {
    float* panel = dst + i0 * kc;
    const std::int64_t mi = std::min(kMr, rows - i0);
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t i = 0; i < mi; ++i) {
        panel[p * kMr + i] = a[(i0 + i) * lda + p];
      }
      for (std::int64_t i = mi; i < kMr; ++i) panel[p * kMr + i] = 0.0f;
    }
  }
}

/// A(i, p) = a_t[p * lda + i] (A supplied transposed, used by gemm_at).
void pack_a_transposed(const float* a_t, std::int64_t lda, std::int64_t rows,
                       std::int64_t kc, float* dst) {
  for (std::int64_t i0 = 0; i0 < rows; i0 += kMr) {
    float* panel = dst + i0 * kc;
    const std::int64_t mi = std::min(kMr, rows - i0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = a_t + p * lda + i0;
      for (std::int64_t i = 0; i < mi; ++i) panel[p * kMr + i] = src[i];
      for (std::int64_t i = mi; i < kMr; ++i) panel[p * kMr + i] = 0.0f;
    }
  }
}

// ---- B-panel packing -------------------------------------------------------
// Destination layout: slivers of kNr columns, each stored row-major
// (dst[(js-j0)*kc + p*kNr + j] for the sliver at column js, so dst points at
// the sliver of column j0); short column tails are zero-padded.

/// B(p, j) = b[p * ldb + j] — contiguous rows, sliver interior is a memcpy.
void pack_b_rowmajor(const float* b, std::int64_t ldb, std::int64_t kc,
                     std::int64_t j0, std::int64_t j1, float* dst) {
  for (std::int64_t js = j0; js < j1; js += kNr) {
    float* sliver = dst + (js - j0) * kc;
    const std::int64_t jn = std::min(kNr, j1 - js);
    if (jn == kNr) {
      for (std::int64_t p = 0; p < kc; ++p) {
        std::memcpy(sliver + p * kNr, b + p * ldb + js,
                    kNr * sizeof(float));
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        for (std::int64_t j = 0; j < jn; ++j) {
          sliver[p * kNr + j] = b[p * ldb + js + j];
        }
        for (std::int64_t j = jn; j < kNr; ++j) sliver[p * kNr + j] = 0.0f;
      }
    }
  }
}

/// B(p, j) = b_t[j * ldb + p] (B supplied transposed, used by gemm_bt);
/// each destination column is a contiguous read of b_t.
void pack_b_transposed(const float* b_t, std::int64_t ldb, std::int64_t kc,
                       std::int64_t j0, std::int64_t j1, float* dst) {
  for (std::int64_t js = j0; js < j1; js += kNr) {
    float* sliver = dst + (js - j0) * kc;
    const std::int64_t jn = std::min(kNr, j1 - js);
    for (std::int64_t j = 0; j < jn; ++j) {
      const float* col = b_t + (js + j) * ldb;
      for (std::int64_t p = 0; p < kc; ++p) sliver[p * kNr + j] = col[p];
    }
    for (std::int64_t j = jn; j < kNr; ++j) {
      for (std::int64_t p = 0; p < kc; ++p) sliver[p * kNr + j] = 0.0f;
    }
  }
}

/// B(p, j) = im2col(images)(p, j) materialized on the fly (fused conv
/// forward): row p of the virtual column matrix selects (channel, kh, kw),
/// column j selects image j / (OH·OW) and its output pixel (oh, ow). Zero
/// padding is synthesized in place, so the dense CKK x B·OHW buffer never
/// exists.
void pack_b_im2col(const float* im, const Im2colSpec& spec, std::int64_t pc,
                   std::int64_t kc, std::int64_t j0, std::int64_t j1,
                   float* dst) {
  const std::int64_t h = spec.height, w = spec.width, k = spec.kernel;
  const std::int64_t stride = spec.stride, pad = spec.padding;
  const std::int64_t out_h = spec.out_h(), out_w = spec.out_w();
  const std::int64_t image = spec.channels * h * w;
  for (std::int64_t js = j0; js < j1; js += kNr) {
    float* sliver = dst + (js - j0) * kc;
    const std::int64_t jn = std::min(kNr, j1 - js);
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int64_t r = pc + p;
      const std::int64_t c = r / (k * k);
      const std::int64_t kh = (r / k) % k;
      const std::int64_t kw = r % k;
      float* row = sliver + p * kNr;
      std::int64_t b = js / (out_h * out_w);
      std::int64_t oh = js / out_w % out_h;
      std::int64_t ow = js % out_w;
      const float* im_c = im + b * image + c * h * w;
      for (std::int64_t j = 0; j < jn; ++j) {
        if (ow == out_w) {
          ow = 0;
          if (++oh == out_h) {
            oh = 0;
            im_c = im + ++b * image + c * h * w;
          }
        }
        const std::int64_t ih = oh * stride - pad + kh;
        const std::int64_t iw = ow * stride - pad + kw;
        row[j] = (ih >= 0 && ih < h && iw >= 0 && iw < w)
                     ? im_c[ih * w + iw]
                     : 0.0f;
        ++ow;
      }
      for (std::int64_t j = jn; j < kNr; ++j) row[j] = 0.0f;
    }
  }
}

void scale_c(std::int64_t m, std::int64_t n, float beta, float* c) {
  const std::int64_t total = m * n;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(total) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

// Per-thread packing scratch. Workers reuse their buffers across calls;
// nested gemm calls (e.g. inside a parallel loop over trials) run inline on
// the caller's thread, so a single pair per thread suffices. The B panel is
// owned by the driver's calling thread (workers only read and write through
// its pointer), so it is per-thread scratch too — keeping it thread_local
// removes the last per-call heap allocation from the inference hot path.
// Both are bounded by the blocking (kMc x kKc, and K x panel width <=
// kMaxPanel unless K alone exceeds it), not by N.
thread_local std::vector<float> t_pack_a;
thread_local std::vector<float> t_pack_b;

/// Shared driver. For each N-panel: packs the panel's B for every K-block
/// (parallel over slivers unless the grid has one task), then runs the task
/// grid of (M-block x sliver group) cells in parallel; each task walks the
/// K-blocks in order, taking its A block from `a_block` (packed into the
/// task's scratch, or a view into weights packed once) and sweeping
/// register tiles sliver by sliver. Two fan-outs per panel, whatever K is.
/// C(i, j) is stored where `lay` says. Every C element is produced by
/// exactly one tile chain with a fixed K-block order, and a full tile and an
/// edge tile add the same products, so results are bitwise identical
/// regardless of thread count, schedule, grid, layout or where A was packed.
template <typename ABlock, typename PackB>
void gemm_driver(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const ABlock& a_block, const PackB& pack_b,
                 const CLayout& lay, float* c) {
  const std::int64_t panel = gemm_detail::panel_width(n, k, kNr, kMaxPanel);
  if (t_pack_b.size() < static_cast<std::size_t>(k * panel)) {
    t_pack_b.resize(static_cast<std::size_t>(k * panel));
  }
  float* bp = t_pack_b.data();  // K-block pc starts at bp + pc * panel
  const std::int64_t width = parallel_width();
  for (std::int64_t jc = 0; jc < n; jc += panel) {
    const std::int64_t nc = std::min(panel, n - jc);
    const std::int64_t slivers = (nc + kNr - 1) / kNr;
    const gemm_detail::TaskGrid grid =
        gemm_detail::task_grid(m, slivers, k, width, kMr, kNr, kMc);
    const auto pack_slivers = [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc = std::min(kKc, k - pc);
        pack_b(pc, kc, jc + lo * kNr, jc + std::min(hi * kNr, nc),
               bp + pc * panel + lo * kNr * kc);
      }
    };
    // A one-task grid packs inline: a pool round would cost more than the
    // packing it spreads.
    if (grid.tasks == 1) {
      pack_slivers(0, slivers);
    } else {
      parallel_for_chunked(0, slivers, pack_slivers);
    }
    parallel_for_chunked(0, grid.tasks, [&](std::int64_t lo, std::int64_t hi) {
      if (t_pack_a.size() < static_cast<std::size_t>(kMc * kKc)) {
        t_pack_a.resize(static_cast<std::size_t>(kMc * kKc));
      }
      float* const scratch = t_pack_a.data();
      const float* ap = nullptr;
      float tile[kMr * kNr];
      const std::int64_t cells = grid.cells();
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc = std::min(kKc, k - pc);
        std::int64_t packed = -1;  // M-block whose A is in ap
        for (std::int64_t t = lo * cells / grid.tasks;
             t < hi * cells / grid.tasks; ++t) {
          const std::int64_t blk = t / grid.n_groups;
          const std::int64_t ic = blk * grid.mc;
          const std::int64_t mc = std::min(grid.mc, m - ic);
          if (blk != packed) {
            ap = a_block(pc, kc, ic, mc, scratch);
            packed = blk;
          }
          const std::int64_t s0 = t % grid.n_groups * grid.slivers;
          const std::int64_t s1 = std::min(slivers, s0 + grid.slivers);
          const std::int64_t j_end = jc + std::min(s1 * kNr, nc);
          for (std::int64_t js = jc + s0 * kNr; js < j_end; js += kNr) {
            const std::int64_t jn = std::min(kNr, n - js);
            const float* bs = bp + pc * panel + (js - jc) * kc;
            const gemm_detail::SliverCols<kNr> cols(lay, js, jn);
            for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
              const std::int64_t mi = std::min(kMr, mc - i0);
              float* c0 = c + (ic + i0) * lay.group;  // row ic+i0, offset 0
              if (mi == kMr && jn == kNr && cols.contiguous) {
                micro_kernel(kc, ap + i0 * kc, bs, alpha, c0 + cols.off[0],
                             lay.group);
                continue;
              }
              // Edge tile (short, or split between images): accumulate into
              // a full-size scratch tile, then add the live region into C.
              std::memset(tile, 0, sizeof(tile));
              micro_kernel(kc, ap + i0 * kc, bs, 1.0f, tile, kNr);
              for (std::int64_t i = 0; i < mi; ++i) {
                float* crow = c0 + i * lay.group;
                for (std::int64_t j = 0; j < jn; ++j) {
                  crow[cols.off[j]] += alpha * tile[i * kNr + j];
                }
              }
            }
          }
        }
      }
    });
  }
}

/// A block of a row-major A (M x lda), packed into the task's scratch.
auto rowmajor_a(const float* a, std::int64_t lda) {
  return [a, lda](std::int64_t pc, std::int64_t kc, std::int64_t ic,
                  std::int64_t mc, float* scratch) -> const float* {
    pack_a_rowmajor(a + ic * lda + pc, lda, mc, kc, scratch);
    return scratch;
  };
}

/// The batched conv lowering over any A source.
template <typename ABlock>
void conv_driver(std::int64_t m, float alpha, const ABlock& a_block,
                 const float* im, const Im2colSpec& spec, float beta,
                 float* c) {
  DCNAS_CHECK(m >= 0 && spec.channels > 0 && spec.batch >= 1,
              "gemm_im2col bad dimensions");
  const std::int64_t k = spec.channels * spec.kernel * spec.kernel;
  const std::int64_t n = spec.batch * spec.out_h() * spec.out_w();
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c);  // the B x M x OH·OW output is one dense block
  if (alpha == 0.0f) return;
  gemm_driver(
      m, n, k, alpha, a_block,
      [&](std::int64_t pc, std::int64_t kc, std::int64_t j0, std::int64_t j1,
          float* dst) { pack_b_im2col(im, spec, pc, kc, j0, j1, dst); },
      CLayout::nchw(m, spec), c);
}

}  // namespace

void pack_gemm_a_rows(std::int64_t m, std::int64_t k, std::int64_t i0,
                      std::int64_t rows, const float* a, float* packed) {
  for (std::int64_t pc = 0; pc < k; pc += kKc) {
    pack_a_rowmajor(a + pc, k, rows, std::min(kKc, k - pc),
                    packed + packed_gemm_a_index(m, k, i0, pc));
  }
}

PackedGemmARows::PackedGemmARows(std::int64_t m, std::int64_t k,
                                 const float* packed)
    : m_(m), k_(k), packed_(packed),
      rows_(static_cast<std::size_t>(kMr * k)) {}

const float* PackedGemmARows::row(std::int64_t i) {
  const std::int64_t i0 = i / kMr * kMr;
  if (i0 != panel_) {
    // Whole panels, pad lanes included: rows_ has room for them.
    float* dst = rows_.data();
    for (std::int64_t pc = 0; pc < k_; pc += kKc) {
      const float* src = packed_ + packed_gemm_a_index(m_, k_, i0, pc);
      const std::int64_t kc = std::min(kKc, k_ - pc);
      for (std::int64_t r = 0; r < kMr; ++r) {
        for (std::int64_t p = 0; p < kc; ++p) {
          dst[r * k_ + pc + p] = src[p * kMr + r];
        }
      }
    }
    panel_ = i0;
  }
  return rows_.data() + (i - i0) * k_;
}

std::int64_t Im2colSpec::out_h() const {
  return conv_out_size(height, kernel, stride, padding);
}

std::int64_t Im2colSpec::out_w() const {
  return conv_out_size(width, kernel, stride, padding);
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  DCNAS_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm dimensions must be >= 0");
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c);
  if (k == 0 || alpha == 0.0f) return;
  gemm_driver(
      m, n, k, alpha, rowmajor_a(a, k),
      [&](std::int64_t pc, std::int64_t kc, std::int64_t j0, std::int64_t j1,
          float* dst) { pack_b_rowmajor(b + pc * n, n, kc, j0, j1, dst); },
      CLayout::row_major(m, n), c);
}

void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, const float* b_t, float beta, float* c) {
  DCNAS_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm_bt dimensions must be >= 0");
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c);
  if (k == 0 || alpha == 0.0f) return;
  gemm_driver(
      m, n, k, alpha, rowmajor_a(a, k),
      [&](std::int64_t pc, std::int64_t kc, std::int64_t j0, std::int64_t j1,
          float* dst) { pack_b_transposed(b_t + pc, k, kc, j0, j1, dst); },
      CLayout::row_major(m, n), c);
}

void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a_t, const float* b, float beta, float* c) {
  DCNAS_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm_at dimensions must be >= 0");
  if (m == 0 || n == 0) return;
  scale_c(m, n, beta, c);
  if (k == 0 || alpha == 0.0f) return;
  // A^T is K x M row-major: element A(i, p) = a_t[p * m + i].
  gemm_driver(
      m, n, k, alpha,
      [&](std::int64_t pc, std::int64_t kc, std::int64_t ic, std::int64_t mc,
          float* scratch) -> const float* {
        pack_a_transposed(a_t + pc * m + ic, m, mc, kc, scratch);
        return scratch;
      },
      [&](std::int64_t pc, std::int64_t kc, std::int64_t j0, std::int64_t j1,
          float* dst) { pack_b_rowmajor(b + pc * n, n, kc, j0, j1, dst); },
      CLayout::row_major(m, n), c);
}

void gemm_im2col(std::int64_t m, float alpha, const float* a, const float* im,
                 const Im2colSpec& spec, float beta, float* c) {
  const std::int64_t k = spec.channels * spec.kernel * spec.kernel;
  conv_driver(m, alpha, rowmajor_a(a, k), im, spec, beta, c);
}

void gemm_im2col_packed(std::int64_t m, float alpha, const float* a_packed,
                        const float* im, const Im2colSpec& spec, float beta,
                        float* c) {
  const std::int64_t k = spec.channels * spec.kernel * spec.kernel;
  conv_driver(
      m, alpha,
      [a_packed, m, k](std::int64_t pc, std::int64_t, std::int64_t ic,
                       std::int64_t, float*) {
        return a_packed + packed_gemm_a_index(m, k, ic, pc);
      },
      im, spec, beta, c);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  DCNAS_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul requires 2-D tensors");
  DCNAS_CHECK(a.dim(1) == b.dim(0), "matmul inner dimension mismatch: " +
                                        shape_to_string(a.shape()) + " x " +
                                        shape_to_string(b.shape()));
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

}  // namespace dcnas
