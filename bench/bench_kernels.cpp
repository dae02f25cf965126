/// Microbenchmarks of the tensor substrate's hot kernels: GEMM, im2col,
/// convolution forward/backward, pooling, batchnorm — the C++ compute that
/// replaces the paper's PyTorch/A100 stack.
///
/// Besides the google-benchmark suite, this binary self-times the packed
/// register-blocked GEMM against a verbatim copy of the seed scalar kernel
/// and records the trajectory in BENCH_kernels.json (host line, the cost of
/// an empty pool round, GFLOP/s per shape, the serving model's conv shapes
/// lowered per sample and batched, conv forward/backward microseconds). CI
/// uploads that file as an artifact, so every commit carries its
/// kernel-perf before/after.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "dcnas/common/rng.hpp"
#include "dcnas/common/thread_pool.hpp"
#include "dcnas/nn/batchnorm.hpp"
#include "dcnas/nn/conv.hpp"
#include "dcnas/tensor/gemm.hpp"
#include "dcnas/tensor/gemm_s8.hpp"
#include "dcnas/tensor/im2col.hpp"
#include "dcnas/tensor/ops.hpp"

using namespace dcnas;

namespace {

/// Verbatim copy of the seed's scalar GEMM (pre-rewrite src/tensor/src/
/// gemm.cpp): serial k-blocked ikj loop with the axpy-style inner loop and
/// the zero-skip fast path. Kept here as the performance baseline every
/// BENCH_kernels.json entry is measured against.
void seed_gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, const float* b, float beta, float* c) {
  constexpr std::int64_t kBlockK = 256;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (std::int64_t kk = 0; kk < k; kk += kBlockK) {
    const std::int64_t k_end = std::min(kk + kBlockK, k);
    for (std::int64_t i = 0; i < m; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      for (std::int64_t p = kk; p < k_end; ++p) {
        const float aip = alpha * a_row[p];
        if (aip == 0.0f) continue;
        const float* b_row = b + p * n;
        for (std::int64_t j = 0; j < n; ++j) c_row[j] += aip * b_row[j];
      }
    }
  }
}

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_GemmSeed(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    seed_gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
}
BENCHMARK(BM_GemmSeed)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmS8(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  std::vector<float> scale(static_cast<std::size_t>(n), 0.01f);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  QuantEpilogue epi;
  epi.scale = scale.data();
  for (auto _ : state) {
    gemm_s8(n, n, n, a.data(), b.data(), epi, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  // int8 MAC counted like a FLOP so items_per_second compares with BM_Gemm.
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmS8)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmBt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(8);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> bt(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : bt) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    gemm_bt(n, n, n, 1.0f, a.data(), bt.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBt)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_GemmAt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(9);
  std::vector<float> at(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : at) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    gemm_at(n, n, n, 1.0f, at.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmAt)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_Im2Col(benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  Rng rng(2);
  const std::int64_t c = 32, k = 3, s = 1, p = 1;
  std::vector<float> im(static_cast<std::size_t>(c * hw * hw));
  for (auto& v : im) v = static_cast<float>(rng.uniform(-1, 1));
  const std::int64_t out = conv_out_size(hw, k, s, p);
  std::vector<float> col(static_cast<std::size_t>(c * k * k * out * out));
  for (auto _ : state) {
    im2col(im.data(), c, hw, hw, k, s, p, col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(col.size()));
}
BENCHMARK(BM_Im2Col)->Arg(28)->Arg(56)->Unit(benchmark::kMicrosecond);

void BM_ConvForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(32, 32, 3, 1, 1, false, rng);
  conv.set_training(false);
  const Tensor x =
      Tensor::rand_uniform({1, 32, state.range(0), state.range(0)}, rng,
                           -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x).data());
  }
}
BENCHMARK(BM_ConvForward)->Arg(28)->Arg(56)->Unit(benchmark::kMicrosecond);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv(16, 16, 3, 1, 1, false, rng);
  const Tensor x = Tensor::rand_uniform({2, 16, 28, 28}, rng, -1.0f, 1.0f);
  const Tensor y = conv.forward(x);
  const Tensor g = Tensor::rand_uniform(y.shape(), rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
}
BENCHMARK(BM_ConvBackward)->Unit(benchmark::kMicrosecond);

void BM_MaxPool(benchmark::State& state) {
  Rng rng(5);
  const Tensor x = Tensor::rand_uniform({1, 64, 112, 112}, rng, -1.0f, 1.0f);
  std::vector<std::int64_t> argmax;
  for (auto _ : state) {
    benchmark::DoNotOptimize(maxpool2d_forward(x, 3, 2, 1, &argmax).data());
  }
}
BENCHMARK(BM_MaxPool)->Unit(benchmark::kMicrosecond);

void BM_BatchNormForward(benchmark::State& state) {
  Rng rng(6);
  nn::BatchNorm2d bn(64);
  const Tensor x = Tensor::rand_uniform({8, 64, 28, 28}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.forward(x).data());
  }
}
BENCHMARK(BM_BatchNormForward)->Unit(benchmark::kMicrosecond);

void BM_Softmax(benchmark::State& state) {
  Rng rng(7);
  const Tensor logits = Tensor::rand_uniform({256, 2}, rng, -3.0f, 3.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(softmax_rows(logits).data());
  }
}
BENCHMARK(BM_Softmax);

// ---- BENCH_kernels.json ----------------------------------------------------

using GemmFn = void (*)(std::int64_t, std::int64_t, std::int64_t, float,
                        const float*, const float*, float, float*);

double time_gemm_gflops(GemmFn fn, std::int64_t n) {
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  fn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());  // warmup
  // Enough iterations for ~0.3 s of work; best-of-3 to shrug off scheduler
  // noise on shared CI machines.
  const int iters = std::max(3, static_cast<int>(3.0e8 / flops));
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      fn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count() / iters;
    best = std::max(best, flops / sec / 1e9);
  }
  return best;
}

double time_gemm_s8_gops(std::int64_t n) {
  Rng rng(1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  std::vector<float> scale(static_cast<std::size_t>(n), 0.01f);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  QuantEpilogue epi;
  epi.scale = scale.data();
  const double ops = 2.0 * static_cast<double>(n) * n * n;
  gemm_s8(n, n, n, a.data(), b.data(), epi, c.data());  // warmup
  const int iters = std::max(3, static_cast<int>(3.0e8 / ops));
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
      gemm_s8(n, n, n, a.data(), b.data(), epi, c.data());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count() / iters;
    best = std::max(best, ops / sec / 1e9);
  }
  return best;
}

template <typename Fn>
double time_us(Fn&& fn, int iters) {
  fn();  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(t1 - t0).count() / iters * 1e6);
  }
  return best;
}

/// One conv of the 24 px serving model (width 32, 3x3 stem at stride 2,
/// 3x3/2 max pool): input channels and side, kernel, stride, padding and
/// output channels.
struct ConvStage {
  const char* name;
  std::int64_t channels, hw, kernel, stride, padding, out_ch;
};

constexpr ConvStage kServingConvs[] = {
    {"stem", 5, 24, 3, 2, 1, 32},    {"s1", 32, 6, 3, 1, 1, 32},
    {"s2.down", 32, 6, 3, 2, 1, 64}, {"s2", 64, 3, 3, 1, 1, 64},
    {"s3.down", 64, 3, 3, 2, 1, 128}, {"s3", 128, 2, 3, 1, 1, 128},
    {"s4.down", 128, 2, 3, 2, 1, 256}, {"s4", 256, 1, 3, 1, 1, 256},
};

/// Where batching's gain comes from: each serving conv shape, best-of-3
/// microseconds per call. At batch 1 there is one lowering (one fused GEMM
/// with N = OH·OW, its weights packed once ahead, as a compiled plan holds
/// them), so one time per shape. At batch 32 the shape is lowered per
/// sample (32 such GEMMs) and batched (one GEMM with N = 32·OH·OW); both
/// compute the same bits.
void write_conv_stage_rows(std::FILE* f) {
  constexpr std::int64_t kBatch = 32;
  std::fprintf(f, "  \"conv_stages_us\": [\n");
  bool first = true;
  for (const ConvStage& cs : kServingConvs) {
    Rng rng(11);
    const Im2colSpec one{cs.channels, cs.hw, cs.hw, cs.kernel, cs.stride,
                         cs.padding};
    Im2colSpec all = one;
    all.batch = kBatch;
    const std::int64_t in_numel = cs.channels * cs.hw * cs.hw;
    const std::int64_t out_numel = cs.out_ch * one.out_h() * one.out_w();
    std::vector<float> w(static_cast<std::size_t>(
        cs.out_ch * cs.channels * cs.kernel * cs.kernel));
    std::vector<float> im(static_cast<std::size_t>(kBatch * in_numel));
    std::vector<float> c(static_cast<std::size_t>(kBatch * out_numel));
    for (auto& v : w) v = static_cast<float>(rng.uniform(-1, 1));
    for (auto& v : im) v = static_cast<float>(rng.uniform(-1, 1));
    const std::int64_t k = cs.channels * cs.kernel * cs.kernel;
    std::vector<float> packed(
        static_cast<std::size_t>(packed_gemm_a_size(cs.out_ch, k)));
    pack_gemm_a_rows(cs.out_ch, k, 0, cs.out_ch, w.data(), packed.data());
    const auto per_sample = [&](std::int64_t batch) {
      for (std::int64_t s = 0; s < batch; ++s) {
        gemm_im2col(cs.out_ch, 1.0f, w.data(), im.data() + s * in_numel, one,
                    0.0f, c.data() + s * out_numel);
      }
      benchmark::DoNotOptimize(c.data());
    };
    const double b1_us = time_us(
        [&] {
          gemm_im2col_packed(cs.out_ch, 1.0f, packed.data(), im.data(), one,
                             0.0f, c.data());
          benchmark::DoNotOptimize(c.data());
        },
        400);
    const double per_sample_us = time_us([&] { per_sample(kBatch); }, 40);
    const double batched_us = time_us(
        [&] {
          gemm_im2col(cs.out_ch, 1.0f, w.data(), im.data(), all, 0.0f,
                      c.data());
          benchmark::DoNotOptimize(c.data());
        },
        40);
    std::printf("conv %-7s b1 %8.1f us | b32 per-sample %9.1f us, batched "
                "%9.1f us (%.2fx)\n",
                cs.name, b1_us, per_sample_us, batched_us,
                per_sample_us / batched_us);
    std::fprintf(f,
                 "%s    {\"conv\": \"%s\", \"shape\": \"%lldx%lldx%lld "
                 "k%llds%lldp%lld -> %lld\", \"b1_us\": %.2f, "
                 "\"b32_per_sample_us\": %.2f, \"b32_batched_us\": %.2f, "
                 "\"speedup\": %.3f}",
                 first ? "" : ",\n", cs.name,
                 static_cast<long long>(cs.channels),
                 static_cast<long long>(cs.hw), static_cast<long long>(cs.hw),
                 static_cast<long long>(cs.kernel),
                 static_cast<long long>(cs.stride),
                 static_cast<long long>(cs.padding),
                 static_cast<long long>(cs.out_ch), b1_us, per_sample_us,
                 batched_us, per_sample_us / batched_us);
    first = false;
  }
  std::fprintf(f, "\n  ],\n");
}

/// What one parallel_for_chunked round costs with nothing to do: the
/// fork-join overhead every pool-parallel kernel call pays at least once.
void write_pool_round_row(std::FILE* f) {
  std::int64_t sink = 0;
  const auto round_us = [&](std::int64_t chunks) {
    return time_us(
        [&] {
          parallel_for_chunked(0, chunks, [&sink](std::int64_t lo,
                                                  std::int64_t) {
            benchmark::DoNotOptimize(sink + lo);
          });
        },
        20000);
  };
  const double four = round_us(4);
  const double sixteen = round_us(16);
  std::printf("pool round (empty): 4 chunks %.2f us, 16 chunks %.2f us\n",
              four, sixteen);
  std::fprintf(f,
               "  \"pool_round_us\": {\"chunks_4\": %.2f, "
               "\"chunks_16\": %.2f},\n",
               four, sixteen);
}

void write_bench_kernels_json() {
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (!f) {
    std::printf("WARNING: cannot write BENCH_kernels.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"host\": {\"host_cores\": %zu, "
               "\"gemm_s8_kernel\": \"%s\"},\n",
               ThreadPool::global().size(), gemm_s8_kernel_name());
  write_pool_round_row(f);
  write_conv_stage_rows(f);
  std::fprintf(f, "  \"gemm\": [\n");
  const std::int64_t shapes[] = {64, 128, 256};
  bool first = true;
  for (const std::int64_t n : shapes) {
    const double packed = time_gemm_gflops(&gemm, n);
    const double seed = time_gemm_gflops(&seed_gemm, n);
    std::printf("BM_Gemm/%lld: packed %.2f GFLOP/s, seed %.2f GFLOP/s "
                "(%.2fx)\n",
                static_cast<long long>(n), packed, seed, packed / seed);
    std::fprintf(f,
                 "%s    {\"shape\": \"%lldx%lldx%lld\", "
                 "\"packed_gflops\": %.3f, \"seed_gflops\": %.3f, "
                 "\"speedup\": %.3f}",
                 first ? "" : ",\n", static_cast<long long>(n),
                 static_cast<long long>(n), static_cast<long long>(n), packed,
                 seed, packed / seed);
    first = false;
  }
  std::fprintf(f, "\n  ],\n  \"gemm_s8\": [\n");
  // Int8 vs fp32 at the same shapes, measured back-to-back in the same run
  // so the speedup column is self-consistent (README's perf table and the
  // kernels-bench CI gate read these numbers). An int8 MAC counts as one
  // "op", so the ratio is a true wall-clock speedup.
  first = true;
  for (const std::int64_t n : shapes) {
    const double int8_gops = time_gemm_s8_gops(n);
    const double fp32 = time_gemm_gflops(&gemm, n);
    std::printf("BM_GemmS8/%lld [%s]: int8 %.2f GOPS, fp32 %.2f GFLOP/s "
                "(%.2fx)\n",
                static_cast<long long>(n), gemm_s8_kernel_name(), int8_gops,
                fp32, int8_gops / fp32);
    std::fprintf(f,
                 "%s    {\"shape\": \"%lldx%lldx%lld\", "
                 "\"int8_gops\": %.3f, \"fp32_gflops\": %.3f, "
                 "\"speedup\": %.3f, \"kernel\": \"%s\"}",
                 first ? "" : ",\n", static_cast<long long>(n),
                 static_cast<long long>(n), static_cast<long long>(n),
                 int8_gops, fp32, int8_gops / fp32, gemm_s8_kernel_name());
    first = false;
  }
  std::fprintf(f, "\n  ],\n");

  {
    Rng rng(3);
    nn::Conv2d conv(32, 32, 3, 1, 1, false, rng);
    conv.set_training(false);
    const Tensor x = Tensor::rand_uniform({1, 32, 56, 56}, rng, -1.0f, 1.0f);
    const double fwd_us =
        time_us([&] { benchmark::DoNotOptimize(conv.forward(x).data()); }, 50);
    Rng rng2(4);
    nn::Conv2d conv_b(16, 16, 3, 1, 1, false, rng2);
    const Tensor xb = Tensor::rand_uniform({2, 16, 28, 28}, rng2, -1.0f, 1.0f);
    const Tensor y = conv_b.forward(xb);
    const Tensor g = Tensor::rand_uniform(y.shape(), rng2, -1.0f, 1.0f);
    const double bwd_us = time_us(
        [&] { benchmark::DoNotOptimize(conv_b.backward(g).data()); }, 50);
    std::printf("conv fwd (32x32x3, 56x56): %.1f us; conv bwd (16x16x3, "
                "2x28x28): %.1f us\n",
                fwd_us, bwd_us);
    std::fprintf(f,
                 "  \"conv_forward_us\": %.2f,\n  \"conv_backward_us\": %.2f\n",
                 fwd_us, bwd_us);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_kernels.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = dcnas::bench::run(argc, argv, [] {
    std::printf("Tensor-substrate kernel microbenchmarks (GEMM, im2col, "
                "conv fwd/bwd, pooling,\nbatchnorm, softmax). items_per_"
                "second for BM_Gemm is FLOP/s.\nBM_GemmSeed is the "
                "pre-rewrite scalar kernel kept as the baseline the\n"
                "packed kernel is gated against (BENCH_kernels.json).\n");
  });
  if (rc == 0) write_bench_kernels_json();
  return rc;
}
