#include "dcnas/plan/executor.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "dcnas/common/error.hpp"
#include "dcnas/common/thread_pool.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/quant/quantize.hpp"
#include "dcnas/tensor/gemm.hpp"
#include "dcnas/tensor/gemm_s8.hpp"

namespace dcnas::plan {

namespace {

using graph::KernelKind;

struct PlanMetrics {
  obs::Counter& runs;
  obs::Counter& allocs;
  obs::Counter& reuses;
  obs::Histogram& batch_rows;

  static PlanMetrics& get() {
    static PlanMetrics m{
        obs::MetricsRegistry::global().counter("plan.exec.run.count"),
        obs::MetricsRegistry::global().counter("plan.exec.allocs"),
        obs::MetricsRegistry::global().counter("plan.exec.arena_reuse.count"),
        obs::MetricsRegistry::global().histogram(
            "plan.exec.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0})};
    return m;
  }
};

/// The batched im2col geometry of a conv step's input.
Im2colSpec conv_spec(const PlanStep& step, std::int64_t batch) {
  Im2colSpec spec;
  spec.channels = step.in_shape.c;
  spec.height = step.in_shape.h;
  spec.width = step.in_shape.w;
  spec.kernel = step.attrs.kernel;
  spec.stride = step.attrs.stride;
  spec.padding = step.attrs.padding;
  spec.batch = batch;
  return spec;
}

/// Bias + optional ReLU epilogue over a batch's (B, OC, OH·OW) output.
void conv_epilogue(float* o, std::int64_t batch, std::int64_t oc,
                   std::int64_t hw, const float* bias, bool relu) {
  for (std::int64_t r = 0; r < batch * oc; ++r) {
    const float b = bias ? bias[r % oc] : 0.0f;
    float* row = o + r * hw;
    if (relu) {
      for (std::int64_t j = 0; j < hw; ++j) {
        row[j] = std::max(row[j] + b, 0.0f);
      }
    } else if (bias) {
      for (std::int64_t j = 0; j < hw; ++j) row[j] += b;
    }
  }
}

void maxpool_raw(const float* in, float* out, std::int64_t nc,
                 std::int64_t h, std::int64_t w, std::int64_t oh,
                 std::int64_t ow, const graph::OpAttrs& a) {
  parallel_for_chunked(0, nc, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t p = lo; p < hi; ++p) {
      const float* plane = in + p * h * w;
      float* out_plane = out + p * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < a.kernel; ++ky) {
            const std::int64_t iy = y * a.stride - a.padding + ky;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < a.kernel; ++kx) {
              const std::int64_t ix = x * a.stride - a.padding + kx;
              if (ix < 0 || ix >= w) continue;
              best = std::max(best, plane[iy * w + ix]);
            }
          }
          out_plane[y * ow + x] = best;
        }
      }
    }
  });
}

}  // namespace

PlanExecutor::PlanExecutor(CompiledPlan plan) : plan_(std::move(plan)) {
  plan_.check_arena();
}

std::size_t PlanExecutor::pooled_arenas() const {
  MutexLock lock(pool_mu_);
  return pool_.size();
}

std::vector<float> PlanExecutor::acquire_arena(std::size_t needed) const {
  {
    MutexLock lock(pool_mu_);
    if (!pool_.empty()) {
      // The first pooled buffer that fits. When none does, the last one is
      // dropped and a fresh one takes its place, so the pool never holds
      // more buffers than runs were in flight at once.
      std::size_t i = 0;
      while (i + 1 < pool_.size() && pool_[i].capacity() < needed) ++i;
      std::vector<float> buffer = std::move(pool_[i]);
      pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
      if (buffer.capacity() >= needed) {
        PlanMetrics::get().reuses.add(1);
        buffer.resize(needed);  // within capacity: no allocation
        return buffer;
      }
    }
  }
  PlanMetrics::get().allocs.add(1);
  return std::vector<float>(needed);
}

void PlanExecutor::release_arena(std::vector<float>&& buffer) const {
  MutexLock lock(pool_mu_);
  pool_.push_back(std::move(buffer));
}

void PlanExecutor::run_step(const PlanStep& step, const float* in0,
                            const float* in1, float* out,
                            std::int64_t batch) const {
  const std::int64_t out_numel = step.out_shape.numel();
  switch (step.kind) {
    case KernelKind::kConv:
    case KernelKind::kConvRelu:
    case KernelKind::kConvBn:
    case KernelKind::kConvBnRelu: {
      if (step.precision == graph::Precision::kInt8) {
        run_conv_s8(step, in0, out, batch);
        return;
      }
      const std::int64_t oc = step.out_shape.c;
      const std::int64_t hw = step.out_shape.h * step.out_shape.w;
      const bool relu = step.kind == KernelKind::kConvRelu ||
                        step.kind == KernelKind::kConvBnRelu;
      const float* bias = step.bias ? step.bias->data() : nullptr;
      gemm_im2col_packed(oc, 1.0f, step.weight.data(), in0,
                         conv_spec(step, batch), 0.0f, out);
      if (bias || relu) conv_epilogue(out, batch, oc, hw, bias, relu);
      return;
    }
    case KernelKind::kMaxPool:
      maxpool_raw(in0, out, batch * step.in_shape.c, step.in_shape.h,
                  step.in_shape.w, step.out_shape.h, step.out_shape.w,
                  step.attrs);
      return;
    case KernelKind::kGlobalAvgPool: {
      const std::int64_t c_count = step.in_shape.c;
      const std::int64_t hw = step.in_shape.h * step.in_shape.w;
      const float inv = 1.0f / static_cast<float>(hw);
      for (std::int64_t p = 0; p < batch * c_count; ++p) {
        const float* plane = in0 + p * hw;
        float acc = 0.0f;
        for (std::int64_t j = 0; j < hw; ++j) acc += plane[j];
        out[p] = acc * inv;
      }
      return;
    }
    case KernelKind::kAdd:
    case KernelKind::kAddRelu: {
      const bool relu = step.kind == KernelKind::kAddRelu;
      const std::int64_t total = batch * out_numel;
      if (relu) {
        for (std::int64_t j = 0; j < total; ++j) {
          out[j] = std::max(in0[j] + in1[j], 0.0f);
        }
      } else {
        for (std::int64_t j = 0; j < total; ++j) out[j] = in0[j] + in1[j];
      }
      return;
    }
    case KernelKind::kRelu: {
      const std::int64_t total = batch * out_numel;
      for (std::int64_t j = 0; j < total; ++j) {
        out[j] = std::max(in0[j], 0.0f);
      }
      return;
    }
    case KernelKind::kBatchNorm: {
      const std::int64_t c_count = step.out_shape.c;
      const std::int64_t hw = step.out_shape.h * step.out_shape.w;
      for (std::int64_t s = 0; s < batch; ++s) {
        for (std::int64_t c = 0; c < c_count; ++c) {
          const float scale = step.bn_scale[c];
          const float shift = step.bn_shift[c];
          const float* xi = in0 + (s * c_count + c) * hw;
          float* oi = out + (s * c_count + c) * hw;
          for (std::int64_t j = 0; j < hw; ++j) oi[j] = xi[j] * scale + shift;
        }
      }
      return;
    }
    case KernelKind::kLinear: {
      const std::int64_t in_f = step.in_shape.numel();
      const std::int64_t out_f = step.out_shape.c;
      gemm_bt(batch, out_f, in_f, 1.0f, in0, step.weight.data(), 0.0f, out);
      for (std::int64_t s = 0; s < batch; ++s) {
        float* row = out + s * out_f;
        for (std::int64_t c = 0; c < out_f; ++c) row[c] += (*step.bias)[c];
      }
      return;
    }
  }
  throw InternalError("unhandled kernel kind in plan executor");
}

void PlanExecutor::run_conv_s8(const PlanStep& step, const float* in0,
                               float* out, std::int64_t batch) const {
  // Quantized conv: the batch's input activations are quantized once with
  // the calibrated per-tensor scale, the int8 GEMM accumulates exactly in
  // int32, and the fused epilogue requantizes straight to fp32 with the
  // per-channel scales (bias and ReLU folded in). A 1x1/s1/p0 conv is just
  // the im2col case whose gather is the identity.
  thread_local std::vector<std::int8_t> t_q_in;
  const std::int64_t in_total = batch * step.in_shape.numel();
  if (t_q_in.size() < static_cast<std::size_t>(in_total)) {
    t_q_in.resize(static_cast<std::size_t>(in_total));
  }
  QuantEpilogue epi;
  epi.scale = step.requant_scale.data();
  epi.bias = step.bias ? step.bias->data() : nullptr;
  epi.relu = step.kind == KernelKind::kConvRelu ||
             step.kind == KernelKind::kConvBnRelu;
  quant::quantize_activations(in0, in_total, step.in_scale, t_q_in.data());
  gemm_s8_im2col(step.out_shape.c, step.weight_q.data(), t_q_in.data(),
                 conv_spec(step, batch), epi, out);
}

Tensor PlanExecutor::run(const Tensor& input) const {
  return run(input, StepObserver());
}

Tensor PlanExecutor::run(const Tensor& input,
                         const StepObserver& observer) const {
  DCNAS_CHECK(input.ndim() == 4 && input.dim(1) == plan_.input_shape.c &&
                  input.dim(2) == plan_.input_shape.h &&
                  input.dim(3) == plan_.input_shape.w,
              "plan executor input shape mismatch");
  const std::int64_t batch = input.dim(0);
  DCNAS_CHECK(batch >= 1, "plan executor requires a non-empty batch");

  obs::Span span("plan", "plan.execute");
  if (span.armed()) span.arg("rows", batch);
  PlanMetrics& metrics = PlanMetrics::get();
  metrics.runs.add(1);
  metrics.batch_rows.observe(static_cast<double>(batch));

  std::vector<float> arena =
      acquire_arena(static_cast<std::size_t>(plan_.arena_size * batch));
  float* base = arena.data();
  auto slot_ptr = [&](int slot) -> float* {
    return base +
           plan_.slots[static_cast<std::size_t>(slot)].offset * batch;
  };

  for (const PlanStep& step : plan_.steps) {
    const float* in0 =
        step.args[0] == kInputSlot ? input.data() : slot_ptr(step.args[0]);
    const float* in1 =
        step.args.size() > 1
            ? (step.args[1] == kInputSlot ? input.data()
                                          : slot_ptr(step.args[1]))
            : nullptr;
    float* out = slot_ptr(step.out);
    run_step(step, in0, in1, out, batch);
    if (observer) observer(step, out, batch * step.out_shape.numel());
  }

  Shape out_shape;
  const graph::ActShape& os = plan_.output_shape;
  if (os.h == 1 && os.w == 1) {
    out_shape = {batch, os.c};  // classifier head: (B, classes)
  } else {
    out_shape = {batch, os.c, os.h, os.w};
  }
  Tensor result(out_shape);
  const float* src =
      plan_.output_slot == kInputSlot ? input.data()
                                      : slot_ptr(plan_.output_slot);
  std::memcpy(result.data(), src,
              static_cast<std::size_t>(result.numel()) * sizeof(float));
  release_arena(std::move(arena));
  return result;
}

}  // namespace dcnas::plan
