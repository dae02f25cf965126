#include "dcnas/tensor/gemm_s8.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/common/thread_pool.hpp"
#include "dcnas/tensor/im2col.hpp"
#include "gemm_grid.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define DCNAS_GEMM_S8_X86 1
#include <immintrin.h>
#endif

namespace dcnas {

namespace {

using gemm_detail::CLayout;
using gemm_detail::round_up;

// Same BLIS blocking as the fp32 driver (gemm.cpp) but a taller 8x16 tile:
// eight rows amortize each packed-B load across eight dot-product chains,
// which measured fastest on AVX-512 VNNI (one zmm accumulator per row).
// Narrower ISAs sweep the tile in 8-column (AVX2) or 4-column (SSE2)
// strips. KC stays 256 (even, so K-pairs never straddle a block boundary).
constexpr std::int64_t kMr = 8;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kMc = 128;
constexpr std::int64_t kMaxPanel = std::int64_t{1} << 18;  // int16 (512 KB)
static_assert(kMc % kMr == 0, "A blocks must hold whole micro-panels");
static_assert(kKc % 2 == 0, "K blocks must hold whole K-pairs");

// ---- Packing ---------------------------------------------------------------
// int8 sources are widened to int16 at pack time:
//   A panel:  ap[(i0+i)*kp + p]             = A(i0+i, pc + p)   (row-major)
//   B sliver: bp[(js-j0)*kp + p2*(2*kNr) + j*2 + r] = B(pc + 2*p2 + r, js + j)
// where kp = kc rounded up to even. Only B needs the K-pair interleave the
// pmaddwd idiom wants — the micro-kernel *broadcasts* each A pair, and a
// row's K-pair is just two adjacent bytes, so row-major widened A already
// has pairs contiguous and the A pack stays a vectorizable widening copy.
// Row/column tails and the odd-K tail are zero-padded; zero is exact under
// symmetric quantization, and padded lanes only feed tile slots that are
// never copied out (same argument as the fp32 packers).

void pack_a_s8(const std::int8_t* a, std::int64_t lda, std::int64_t rows,
               std::int64_t kc, std::int16_t* dst) {
  const std::int64_t kp = round_up(kc, 2);
  const std::int64_t rows_round = round_up(rows, kMr);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* src = a + i * lda;
    std::int16_t* d = dst + i * kp;
    for (std::int64_t p = 0; p < kc; ++p) d[p] = src[p];
    if (kp > kc) d[kc] = 0;
  }
  for (std::int64_t i = rows; i < rows_round; ++i) {
    std::memset(dst + i * kp, 0, static_cast<std::size_t>(kp) * 2);
  }
}

#if defined(DCNAS_GEMM_S8_X86)
/// Widens two 16-byte int8 rows to int16 and stores them K-pair interleaved
/// (r0[0], r1[0], r0[1], r1[1], ...) — one packed B sliver row.
inline void widen_interleave_16(const std::int8_t* r0, const std::int8_t* r1,
                                std::int16_t* dst) {
  const __m128i x0 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0));
  const __m128i x1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1));
  const __m128i z = _mm_setzero_si128();
  const __m128i s0 = _mm_cmpgt_epi8(z, x0);  // sign masks for widening
  const __m128i s1 = _mm_cmpgt_epi8(z, x1);
  const __m128i a_lo = _mm_unpacklo_epi8(x0, s0);
  const __m128i a_hi = _mm_unpackhi_epi8(x0, s0);
  const __m128i b_lo = _mm_unpacklo_epi8(x1, s1);
  const __m128i b_hi = _mm_unpackhi_epi8(x1, s1);
  __m128i* d = reinterpret_cast<__m128i*>(dst);
  _mm_storeu_si128(d + 0, _mm_unpacklo_epi16(a_lo, b_lo));
  _mm_storeu_si128(d + 1, _mm_unpackhi_epi16(a_lo, b_lo));
  _mm_storeu_si128(d + 2, _mm_unpacklo_epi16(a_hi, b_hi));
  _mm_storeu_si128(d + 3, _mm_unpackhi_epi16(a_hi, b_hi));
}
#endif

void pack_b_s8_rowmajor(const std::int8_t* b, std::int64_t ldb,
                        std::int64_t kc, std::int64_t j0, std::int64_t j1,
                        std::int16_t* dst) {
  const std::int64_t kp = round_up(kc, 2);
  for (std::int64_t js = j0; js < j1; js += kNr) {
    std::int16_t* sliver = dst + (js - j0) * kp;
    const std::int64_t jn = std::min(kNr, j1 - js);
#if defined(DCNAS_GEMM_S8_X86)
    if (jn == kNr) {
      std::int64_t p2 = 0;
      for (; 2 * p2 + 1 < kc; ++p2) {
        const std::int8_t* r0 = b + (2 * p2) * ldb + js;
        widen_interleave_16(r0, r0 + ldb, sliver + p2 * (2 * kNr));
      }
      if (2 * p2 < kc) {  // odd-K tail: second row of the pair is zero
        const std::int8_t* r0 = b + (2 * p2) * ldb + js;
        std::int16_t* row = sliver + p2 * (2 * kNr);
        for (std::int64_t j = 0; j < kNr; ++j) {
          row[j * 2 + 0] = static_cast<std::int16_t>(r0[j]);
          row[j * 2 + 1] = 0;
        }
      }
      continue;
    }
#endif
    for (std::int64_t p2 = 0; p2 < kp / 2; ++p2) {
      std::int16_t* row = sliver + p2 * (2 * kNr);
      for (std::int64_t r = 0; r < 2; ++r) {
        const std::int64_t p = 2 * p2 + r;
        if (p >= kc) {
          for (std::int64_t j = 0; j < kNr; ++j) row[j * 2 + r] = 0;
          continue;
        }
        const std::int8_t* src = b + p * ldb + js;
        for (std::int64_t j = 0; j < jn; ++j) {
          row[j * 2 + r] = static_cast<std::int16_t>(src[j]);
        }
        for (std::int64_t j = jn; j < kNr; ++j) row[j * 2 + r] = 0;
      }
    }
  }
}

/// B(p, j) = im2col(im_q)(p, j) synthesized in place from the quantized
/// images (column j gathers from image j / (OH·OW)); out-of-bounds taps
/// read q = 0 (exact: symmetric, zero-point 0).
void pack_b_s8_im2col(const std::int8_t* im, const Im2colSpec& spec,
                      std::int64_t pc, std::int64_t kc, std::int64_t j0,
                      std::int64_t j1, std::int16_t* dst) {
  const std::int64_t h = spec.height, w = spec.width, k = spec.kernel;
  const std::int64_t stride = spec.stride, pad = spec.padding;
  const std::int64_t out_h = spec.out_h(), out_w = spec.out_w();
  const std::int64_t image = spec.channels * h * w;
  const std::int64_t kp = round_up(kc, 2);
  for (std::int64_t js = j0; js < j1; js += kNr) {
    std::int16_t* sliver = dst + (js - j0) * kp;
    const std::int64_t jn = std::min(kNr, j1 - js);
    for (std::int64_t p2 = 0; p2 < kp / 2; ++p2) {
      std::int16_t* row = sliver + p2 * (2 * kNr);
      for (std::int64_t rr = 0; rr < 2; ++rr) {
        const std::int64_t p = 2 * p2 + rr;
        if (p >= kc) {
          for (std::int64_t j = 0; j < kNr; ++j) row[j * 2 + rr] = 0;
          continue;
        }
        const std::int64_t r = pc + p;
        const std::int64_t c = r / (k * k);
        const std::int64_t kh = (r / k) % k;
        const std::int64_t kw = r % k;
        std::int64_t b = js / (out_h * out_w);
        std::int64_t oh = js / out_w % out_h;
        std::int64_t ow = js % out_w;
        const std::int8_t* im_c = im + b * image + c * h * w;
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
          row[j * 2 + rr] = (ih >= 0 && ih < h && iw >= 0 && iw < w)
                                ? static_cast<std::int16_t>(im_c[ih * w + iw])
                                : std::int16_t{0};
          ++ow;
        }
        for (std::int64_t j = jn; j < kNr; ++j) row[j * 2 + rr] = 0;
      }
    }
  }
}

// ---- Micro-kernels ---------------------------------------------------------
// out(8x16 int32, leading dim ldo) += Ap · Bp over `pairs` K-pairs. Ap is a
// row-major widened micro-panel (row stride 2*pairs int16; the K-pair for
// row i is the two adjacent values at ap[i*2*pairs + 2*p2]). All variants
// compute the identical exact integer result; dispatch picks the fastest
// one the CPU supports at first use.

[[maybe_unused]] void micro_s8_scalar(
    std::int64_t pairs, const std::int16_t* __restrict ap,
    const std::int16_t* __restrict bp, std::int32_t* __restrict out,
    std::int64_t ldo, bool accumulate) {
  const std::int64_t akp = 2 * pairs;
  std::int32_t acc[kMr][kNr] = {};
  for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
    const std::int16_t* b = bp + p2 * (2 * kNr);
    for (int i = 0; i < kMr; ++i) {
      const std::int32_t a0 = ap[i * akp + 2 * p2 + 0];
      const std::int32_t a1 = ap[i * akp + 2 * p2 + 1];
      for (int j = 0; j < kNr; ++j) {
        acc[i][j] += a0 * b[j * 2 + 0] + a1 * b[j * 2 + 1];
      }
    }
  }
  for (int i = 0; i < kMr; ++i) {
    for (int j = 0; j < kNr; ++j) {
      out[i * ldo + j] = accumulate ? out[i * ldo + j] + acc[i][j] : acc[i][j];
    }
  }
}

#if defined(DCNAS_GEMM_S8_X86)

inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// SSE2 baseline (part of the x86-64 ABI, no flags needed): one pmaddwd
/// covers 4 int32 lanes · 2 MACs each. The 8x16 tile would need 32 xmm
/// accumulators, so the kernel sweeps it in 4-column strips (8 xmm each);
/// packed A is L1-resident, making the extra passes nearly free.
void micro_s8_sse2(std::int64_t pairs, const std::int16_t* __restrict ap,
                   const std::int16_t* __restrict bp,
                   std::int32_t* __restrict out, std::int64_t ldo,
                   bool accumulate) {
  const std::int64_t akp = 2 * pairs;
  for (int q = 0; q < kNr / 4; ++q) {
    __m128i acc[kMr];
    for (int i = 0; i < kMr; ++i) acc[i] = _mm_setzero_si128();
    for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
      const std::int16_t* brow = bp + p2 * (2 * kNr) + q * 8;
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow));
      const std::int16_t* apair = ap + 2 * p2;
      for (int i = 0; i < kMr; ++i) {
        const __m128i a = _mm_set1_epi32(load_pair(apair + i * akp));
        acc[i] = _mm_add_epi32(acc[i], _mm_madd_epi16(a, b));
      }
    }
    for (int i = 0; i < kMr; ++i) {
      __m128i* o = reinterpret_cast<__m128i*>(out + i * ldo + q * 4);
      _mm_storeu_si128(
          o, accumulate ? _mm_add_epi32(_mm_loadu_si128(o), acc[i]) : acc[i]);
    }
  }
}

#if defined(__GNUC__)
/// AVX2 variant compiled with a function-level target attribute so it exists
/// even in non-native builds; pick_micro() only selects it when cpuid says
/// the machine has AVX2. vpmaddwd: 8 int32 lanes · 2 MACs per instruction;
/// the tile is swept in two 8-column halves of 8 ymm accumulators each.
__attribute__((target("avx2"))) void micro_s8_avx2(
    std::int64_t pairs, const std::int16_t* __restrict ap,
    const std::int16_t* __restrict bp, std::int32_t* __restrict out,
    std::int64_t ldo, bool accumulate) {
  const std::int64_t akp = 2 * pairs;
  for (int h = 0; h < kNr / 8; ++h) {
    __m256i acc[kMr];
    for (int i = 0; i < kMr; ++i) acc[i] = _mm256_setzero_si256();
    for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
      const std::int16_t* brow = bp + p2 * (2 * kNr) + h * 16;
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow));
      const std::int16_t* apair = ap + 2 * p2;
      for (int i = 0; i < kMr; ++i) {
        const __m256i a = _mm256_set1_epi32(load_pair(apair + i * akp));
        acc[i] = _mm256_add_epi32(acc[i], _mm256_madd_epi16(a, b));
      }
    }
    for (int i = 0; i < kMr; ++i) {
      __m256i* o = reinterpret_cast<__m256i*>(out + i * ldo + h * 8);
      _mm256_storeu_si256(
          o, accumulate ? _mm256_add_epi32(_mm256_loadu_si256(o), acc[i])
                        : acc[i]);
    }
  }
}

/// AVX-512 VNNI variant: vpdpwssd fuses the int16 pair multiply-add with
/// the int32 accumulate (2 MACs per lane, 16 lanes, one instruction). One
/// zmm accumulator per row gives 8 independent dependency chains sharing
/// each packed-B load — the fastest shape measured on this tile family.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void micro_s8_vnni(
    std::int64_t pairs, const std::int16_t* __restrict ap,
    const std::int16_t* __restrict bp, std::int32_t* __restrict out,
    std::int64_t ldo, bool accumulate) {
  const std::int64_t akp = 2 * pairs;
  __m512i acc[kMr];
  for (int i = 0; i < kMr; ++i) acc[i] = _mm512_setzero_si512();
  for (std::int64_t p2 = 0; p2 < pairs; ++p2) {
    const __m512i b = _mm512_loadu_si512(bp + p2 * (2 * kNr));
    const std::int16_t* apair = ap + 2 * p2;
    for (int i = 0; i < kMr; ++i) {
      acc[i] = _mm512_dpwssd_epi32(
          acc[i], _mm512_set1_epi32(load_pair(apair + i * akp)), b);
    }
  }
  for (int i = 0; i < kMr; ++i) {
    std::int32_t* o = out + i * ldo;
    _mm512_storeu_si512(
        o, accumulate ? _mm512_add_epi32(_mm512_loadu_si512(o), acc[i])
                      : acc[i]);
  }
}
#endif  // __GNUC__

#endif  // DCNAS_GEMM_S8_X86

using MicroS8Fn = void (*)(std::int64_t, const std::int16_t*,
                           const std::int16_t*, std::int32_t*, std::int64_t,
                           bool);

struct MicroS8 {
  MicroS8Fn fn;
  const char* name;
};

const MicroS8& micro_s8() {
  static const MicroS8 selected = [] {
#if defined(DCNAS_GEMM_S8_X86) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512bw")) {
      return MicroS8{micro_s8_vnni, "avx512vnni"};
    }
    if (__builtin_cpu_supports("avx2")) return MicroS8{micro_s8_avx2, "avx2"};
#endif
#if defined(DCNAS_GEMM_S8_X86)
    return MicroS8{micro_s8_sse2, "sse2"};
#else
    return MicroS8{micro_s8_scalar, "scalar"};
#endif
  }();
  return selected;
}

// Per-thread packing scratch, mirroring the fp32 driver's ownership rules:
// the B panel and the int32 accumulator belong to the driver's calling
// thread (workers only write through their pointers); each worker packs A
// into its own buffer.
thread_local std::vector<std::int16_t> t_pack_a_s8;
thread_local std::vector<std::int16_t> t_pack_b_s8;
thread_local std::vector<std::int32_t> t_acc_s8;

/// Shared int8 driver: identical structure to the fp32 gemm_driver (per
/// N-panel, one B-pack over every K-block, fanned out unless the grid has
/// one task, then one fan-out of M-block x sliver-group cells, each task
/// walking the K-blocks in order), but the destination is an m x n row-major int32 accumulator that
/// persists across K-blocks (requantization must see the complete exact
/// sum). When the whole K dimension fits in one K-block and an epilogue is
/// supplied, the driver instead requantizes each tile straight from L1 into
/// the fp32 output, stored where `lay` says, and never materializes the big
/// accumulator (`acc` may then be null).
template <typename PackA, typename PackB>
void gemm_s8_driver(std::int64_t m, std::int64_t n, std::int64_t k,
                    const PackA& pack_a, const PackB& pack_b,
                    std::int32_t* acc, const QuantEpilogue* epi,
                    const CLayout& lay, float* c) {
  const bool fused = epi != nullptr;
  DCNAS_CHECK(fused ? (k <= kKc && c != nullptr) : acc != nullptr,
              "gemm_s8 driver destination misconfigured");
  const std::int64_t kp_all = round_up(k, 2);
  const std::int64_t panel =
      gemm_detail::panel_width(n, kp_all, kNr, kMaxPanel);
  if (t_pack_b_s8.size() < static_cast<std::size_t>(kp_all * panel)) {
    t_pack_b_s8.resize(static_cast<std::size_t>(kp_all * panel));
  }
  std::int16_t* bp = t_pack_b_s8.data();  // K-block pc at bp + pc * panel
  const MicroS8Fn micro = micro_s8().fn;
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
               bp + pc * panel + lo * kNr * round_up(kc, 2));
      }
    };
    if (grid.tasks == 1) {
      pack_slivers(0, slivers);
    } else {
      parallel_for_chunked(0, slivers, pack_slivers);
    }
    parallel_for_chunked(0, grid.tasks, [&](std::int64_t lo, std::int64_t hi) {
      if (t_pack_a_s8.size() < static_cast<std::size_t>(kMc * kKc)) {
        t_pack_a_s8.resize(static_cast<std::size_t>(kMc * kKc));
      }
      std::int16_t* ap = t_pack_a_s8.data();
      std::int32_t tile[kMr * kNr];
      const std::int64_t cells = grid.cells();
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc = std::min(kKc, k - pc);
        // The first K-block overwrites the accumulator (no memset, no
        // read-modify-write); later blocks accumulate on top.
        const bool accumulate = pc > 0;
        const std::int64_t kp = round_up(kc, 2);
        const std::int64_t pairs = kp / 2;
        std::int64_t packed = -1;  // M-block whose A is in ap
        for (std::int64_t t = lo * cells / grid.tasks;
             t < hi * cells / grid.tasks; ++t) {
          const std::int64_t blk = t / grid.n_groups;
          const std::int64_t ic = blk * grid.mc;
          const std::int64_t mc = std::min(grid.mc, m - ic);
          if (blk != packed) {
            pack_a(pc, kc, ic, mc, ap);
            packed = blk;
          }
          const std::int64_t s0 = t % grid.n_groups * grid.slivers;
          const std::int64_t s1 = std::min(slivers, s0 + grid.slivers);
          const std::int64_t j_end = jc + std::min(s1 * kNr, nc);
          // Sliver-major sweep: the 16-column packed-B sliver (kKc*kNr
          // int16 = 8 KB) stays L1-resident across every micro-panel while
          // the packed A block streams sequentially — measurably faster
          // than the panel-major order on the int16 operands.
          for (std::int64_t js = jc + s0 * kNr; js < j_end; js += kNr) {
            const std::int64_t jn = std::min(kNr, n - js);
            const std::int16_t* bs = bp + pc * panel + (js - jc) * kp;
            const gemm_detail::SliverCols<kNr> cols(lay, js, jn);
            for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
              const std::int64_t mi = std::min(kMr, mc - i0);
              if (fused) {
                micro(pairs, ap + i0 * kp, bs, tile, kNr,
                      /*accumulate=*/false);
                for (std::int64_t i = 0; i < mi; ++i) {
                  const std::int64_t row = ic + i0 + i;
                  const float s = epi->scale[row];
                  const float b = epi->bias ? epi->bias[row] : 0.0f;
                  const std::int32_t* trow = tile + i * kNr;
                  float* c0 = c + row * lay.group;
                  if (cols.contiguous) {
                    float* crow = c0 + cols.off[0];
                    if (epi->relu) {
                      for (std::int64_t j = 0; j < jn; ++j) {
                        crow[j] = std::max(
                            static_cast<float>(trow[j]) * s + b, 0.0f);
                      }
                    } else {
                      for (std::int64_t j = 0; j < jn; ++j) {
                        crow[j] = static_cast<float>(trow[j]) * s + b;
                      }
                    }
                  } else {
                    for (std::int64_t j = 0; j < jn; ++j) {
                      const float v = static_cast<float>(trow[j]) * s + b;
                      c0[cols.off[j]] = epi->relu ? std::max(v, 0.0f) : v;
                    }
                  }
                }
              } else if (mi == kMr && jn == kNr) {
                micro(pairs, ap + i0 * kp, bs, acc + (ic + i0) * n + js, n,
                      accumulate);
              } else {
                micro(pairs, ap + i0 * kp, bs, tile, kNr,
                      /*accumulate=*/false);
                for (std::int64_t i = 0; i < mi; ++i) {
                  std::int32_t* crow = acc + (ic + i0 + i) * n + js;
                  if (accumulate) {
                    for (std::int64_t j = 0; j < jn; ++j) {
                      crow[j] += tile[i * kNr + j];
                    }
                  } else {
                    for (std::int64_t j = 0; j < jn; ++j) {
                      crow[j] = tile[i * kNr + j];
                    }
                  }
                }
              }
            }
          }
        }
      }
    });
  }
}

/// Requantization pass: fp32 C, stored where `lay` says, from the exact
/// m x n row-major int32 accumulator.
void requantize_c(std::int64_t m, std::int64_t n, const std::int32_t* acc,
                  const QuantEpilogue& epi, const CLayout& lay, float* c) {
  parallel_for_chunked(0, m, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float s = epi.scale[i];
      const float b = epi.bias ? epi.bias[i] : 0.0f;
      for (std::int64_t j0 = 0; j0 < n; j0 += lay.group) {
        const std::int32_t* arow = acc + i * n + j0;
        float* crow = c + lay.offset(j0) + i * lay.group;
        if (epi.relu) {
          for (std::int64_t j = 0; j < lay.group; ++j) {
            crow[j] = std::max(static_cast<float>(arow[j]) * s + b, 0.0f);
          }
        } else {
          for (std::int64_t j = 0; j < lay.group; ++j) {
            crow[j] = static_cast<float>(arow[j]) * s + b;
          }
        }
      }
    }
  });
}

void check_dims_s8(std::int64_t m, std::int64_t n, std::int64_t k) {
  DCNAS_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm_s8 dimensions must be >= 0");
  DCNAS_CHECK(k <= kGemmS8MaxK,
              "gemm_s8 K dimension too large for exact int32 accumulation");
}

/// The returned buffer is NOT zeroed: the driver's first K-block runs the
/// micro-kernel in overwrite mode, so every element of the m x n region is
/// stored before it is ever read.
std::int32_t* acquire_acc(std::int64_t m, std::int64_t n) {
  const std::size_t total = static_cast<std::size_t>(m * n);
  if (t_acc_s8.size() < total) t_acc_s8.resize(total);
  return t_acc_s8.data();
}

}  // namespace

const char* gemm_s8_kernel_name() { return micro_s8().name; }

void gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
             const std::int8_t* a, const std::int8_t* b,
             const QuantEpilogue& epi, float* c) {
  check_dims_s8(m, n, k);
  DCNAS_CHECK(epi.scale != nullptr, "gemm_s8 requires per-row scales");
  if (m == 0 || n == 0) return;
  const auto pack_a = [&](std::int64_t pc, std::int64_t kc, std::int64_t ic,
                          std::int64_t mc, std::int16_t* dst) {
    pack_a_s8(a + ic * k + pc, k, mc, kc, dst);
  };
  const auto pack_b = [&](std::int64_t pc, std::int64_t kc, std::int64_t j0,
                          std::int64_t j1, std::int16_t* dst) {
    pack_b_s8_rowmajor(b + pc * n, n, kc, j0, j1, dst);
  };
  const CLayout lay = CLayout::row_major(m, n);
  if (k <= kKc) {
    gemm_s8_driver(m, n, k, pack_a, pack_b, nullptr, &epi, lay, c);
    return;
  }
  std::int32_t* acc = acquire_acc(m, n);
  gemm_s8_driver(m, n, k, pack_a, pack_b, acc, nullptr, lay, nullptr);
  requantize_c(m, n, acc, epi, lay, c);
}

void gemm_s8_i32(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  check_dims_s8(m, n, k);
  if (m == 0 || n == 0) return;
  gemm_s8_driver(
      m, n, k,
      [&](std::int64_t pc, std::int64_t kc, std::int64_t ic, std::int64_t mc,
          std::int16_t* dst) { pack_a_s8(a + ic * k + pc, k, mc, kc, dst); },
      [&](std::int64_t pc, std::int64_t kc, std::int64_t j0, std::int64_t j1,
          std::int16_t* dst) {
        pack_b_s8_rowmajor(b + pc * n, n, kc, j0, j1, dst);
      },
      c, nullptr, CLayout::row_major(m, n), nullptr);
}

void gemm_s8_im2col(std::int64_t m, const std::int8_t* a,
                    const std::int8_t* im_q, const Im2colSpec& spec,
                    const QuantEpilogue& epi, float* c) {
  DCNAS_CHECK(m >= 0 && spec.channels > 0 && spec.batch >= 1,
              "gemm_s8_im2col bad dimensions");
  DCNAS_CHECK(epi.scale != nullptr, "gemm_s8_im2col requires per-row scales");
  const std::int64_t k = spec.channels * spec.kernel * spec.kernel;
  const std::int64_t n = spec.batch * spec.out_h() * spec.out_w();
  check_dims_s8(m, n, k);
  if (m == 0 || n == 0) return;
  const auto pack_a = [&](std::int64_t pc, std::int64_t kc, std::int64_t ic,
                          std::int64_t mc, std::int16_t* dst) {
    pack_a_s8(a + ic * k + pc, k, mc, kc, dst);
  };
  const auto pack_b = [&](std::int64_t pc, std::int64_t kc, std::int64_t j0,
                          std::int64_t j1, std::int16_t* dst) {
    pack_b_s8_im2col(im_q, spec, pc, kc, j0, j1, dst);
  };
  const CLayout lay = CLayout::nchw(m, spec);
  if (k <= kKc) {
    gemm_s8_driver(m, n, k, pack_a, pack_b, nullptr, &epi, lay, c);
    return;
  }
  std::int32_t* acc = acquire_acc(m, n);
  gemm_s8_driver(m, n, k, pack_a, pack_b, acc, nullptr, lay, nullptr);
  requantize_c(m, n, acc, epi, lay, c);
}

}  // namespace dcnas
