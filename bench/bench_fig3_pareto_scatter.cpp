/// Figure 3 reproduction: the three-objective scatter with the
/// non-dominated points highlighted — ASCII projections here, full data in
/// fig3_scatter.csv — plus normalization/export microbenchmarks.

#include "bench_common.hpp"
#include "dcnas/core/report.hpp"

using namespace dcnas;

namespace {

const core::SweepResult& shared_sweep() {
  static const core::SweepResult sweep = [] {
    // Full 1,728-trial sweep through the parallel scheduler; pruning stays
    // off, so the result is byte-identical to the serial path.
    core::HwNasPipeline pipeline;
    return pipeline.run_full_sweep();
  }();
  return sweep;
}

void BM_Normalize(benchmark::State& state) {
  const auto& pts = shared_sweep().objectives;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::normalize(pts).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pts.size()));
}
BENCHMARK(BM_Normalize)->Unit(benchmark::kMicrosecond);

void BM_ScatterCsv(benchmark::State& state) {
  const auto& sweep = shared_sweep();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pareto::scatter_csv(sweep.objectives, sweep.front_indices)
            .num_rows());
  }
}
BENCHMARK(BM_ScatterCsv)->Unit(benchmark::kMillisecond);

void BM_AsciiScatter(benchmark::State& state) {
  const auto& sweep = shared_sweep();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pareto::ascii_scatter(sweep.objectives, sweep.front_indices,
                              "latency-accuracy")
            .size());
  }
}
BENCHMARK(BM_AsciiScatter)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, [] {
    const auto& sweep = shared_sweep();
    std::printf("%s", core::fig3_text(sweep).c_str());
    pareto::scatter_csv(sweep.objectives, sweep.front_indices)
        .save("fig3_scatter.csv");
    std::printf("full scatter written to fig3_scatter.csv (%zu rows)\n",
                sweep.objectives.size());
  });
}
