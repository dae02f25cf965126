#pragma once
/// \file gemm_grid.hpp
/// \brief Internal to the GEMM drivers (gemm.cpp, gemm_s8.cpp): where C
/// elements live, and how one macro-loop step splits into parallel tasks.
///
/// Neither changes arithmetic. Every C element is still produced by one
/// micro-kernel chain over the same K-blocks in the same order, so results
/// are bitwise independent of the layout, the grid and the batch size.

#include <algorithm>
#include <cstdint>

#include "dcnas/tensor/gemm.hpp"

namespace dcnas::gemm_detail {

inline std::int64_t round_up(std::int64_t x, std::int64_t q) {
  return (x + q - 1) / q * q;
}

inline std::int64_t ceil_div(std::int64_t x, std::int64_t q) {
  return (x + q - 1) / q;
}

/// Where the driver stores C(i, j). A plain GEMM is one row-major M x N
/// block (group == N). The batched conv lowering stores NCHW: column j is
/// output pixel j % group of image j / group, and each image's M x group
/// block follows the previous one.
struct CLayout {
  std::int64_t group = 0;         ///< columns per image
  std::int64_t image_stride = 0;  ///< elements between images (M * group)

  static CLayout row_major(std::int64_t m, std::int64_t n) {
    return {n, m * n};
  }
  static CLayout nchw(std::int64_t m, const Im2colSpec& spec) {
    const std::int64_t hw = spec.out_h() * spec.out_w();
    return {hw, m * hw};
  }

  /// Offset of C(0, j); C(i, j) is at offset(j) + i * group.
  std::int64_t offset(std::int64_t j) const {
    return (j / group) * image_stride + j % group;
  }
};

/// C offsets of the columns [js, js + jn) of one B sliver (jn <= kNr).
template <std::int64_t kNr>
struct SliverCols {
  std::int64_t off[kNr];
  bool contiguous;  ///< all in one image: off[j] == off[0] + j

  SliverCols(const CLayout& lay, std::int64_t js, std::int64_t jn) {
    for (std::int64_t j = 0; j < jn; ++j) off[j] = lay.offset(js + j);
    contiguous = js % lay.group + jn <= lay.group;
  }
};

/// Columns per N-panel: whole slivers, as many as fit `max_panel` packed
/// elements across all of K (at least one sliver), and no more than N needs.
inline std::int64_t panel_width(std::int64_t n, std::int64_t k,
                                std::int64_t nr, std::int64_t max_panel) {
  const std::int64_t fit = max_panel / std::max<std::int64_t>(k, 1) / nr * nr;
  return std::min(std::max(fit, nr), round_up(n, nr));
}

/// One N-panel's macro loop: a grid of m_blocks x n_groups cells, each an
/// M-block of `mc` rows times a group of `slivers` packed-B slivers, dealt
/// out in contiguous runs to `tasks` parallel tasks.
struct TaskGrid {
  std::int64_t mc = 0, m_blocks = 0, slivers = 0, n_groups = 0, tasks = 0;
  std::int64_t cells() const { return m_blocks * n_groups; }
};

/// Least multiply-adds worth a task of its own: about 40 us on one core,
/// more than waking a pool thread and joining it costs.
inline constexpr std::int64_t kMinTaskMacs = std::int64_t{1} << 19;

/// Fewest rows an M-block is cut to: each task streams the whole packed B
/// panel, so its A block must feed several micro-panels from it.
inline constexpr std::int64_t kMinMc = 32;

/// Gives each thread a cell. The panel's multiply-adds (tiles padded to
/// mr x nr) fill `threads` threads at kMinTaskMacs each, at most `width`.
/// M is cut first, into blocks of m / threads rows kept within
/// [kMinMc, max_mc]; when that leaves threads without a cell (a short M, as
/// in a 32-channel stem at batch 32), each M-block's slivers are split into
/// groups. With one thread this is the plain sweep over max_mc-row blocks.
inline TaskGrid task_grid(std::int64_t m, std::int64_t panel_slivers,
                          std::int64_t k, std::int64_t width,
                          std::int64_t mr, std::int64_t nr,
                          std::int64_t max_mc) {
  const std::int64_t macs = round_up(m, mr) * panel_slivers * nr * k;
  const std::int64_t threads = std::clamp<std::int64_t>(
      macs / kMinTaskMacs, 1, std::max<std::int64_t>(width, 1));
  TaskGrid g;
  g.mc = std::clamp(round_up(ceil_div(m, threads), mr),
                    std::min(kMinMc, round_up(m, mr)), max_mc);
  g.m_blocks = ceil_div(m, g.mc);
  const std::int64_t groups =
      std::min(panel_slivers, ceil_div(threads, g.m_blocks));
  g.slivers = ceil_div(panel_slivers, groups);
  g.n_groups = ceil_div(panel_slivers, g.slivers);
  g.tasks = std::min(g.cells(), std::max(threads, g.m_blocks));
  return g;
}

}  // namespace dcnas::gemm_detail
