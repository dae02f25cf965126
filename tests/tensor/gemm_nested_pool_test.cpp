#include "dcnas/tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <vector>

#include "dcnas/common/rng.hpp"
#include "dcnas/common/thread_pool.hpp"

namespace dcnas {
namespace {

/// TSan regression for the two-level scheduler shape: GEMM (whose driver
/// calls parallel_for_chunked) running *inside* a dedicated pool's task.
/// The nested-execution rule must keep this deadlock- and race-free at
/// every budget: budget 1 runs the kernel inline in the pool worker,
/// a raised budget fans row panels out onto the global pool.
class GemmNestedPoolTest : public ::testing::Test {
 protected:
  static std::vector<float> random_matrix(std::int64_t elems,
                                          std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> m(static_cast<std::size_t>(elems));
    for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return m;
  }
};

TEST_F(GemmNestedPoolTest, GemmInsidePoolTaskMatchesSerialBitwise) {
  constexpr std::int64_t kN = 48;
  const auto a = random_matrix(kN * kN, 1);
  const auto b = random_matrix(kN * kN, 2);

  std::vector<float> serial(static_cast<std::size_t>(kN * kN), 0.0f);
  gemm(kN, kN, kN, 1.0f, a.data(), b.data(), 0.0f, serial.data());

  ThreadPool pool(4);
  std::vector<std::vector<float>> results(
      8, std::vector<float>(static_cast<std::size_t>(kN * kN), 0.0f));
  std::vector<std::future<void>> done;
  for (auto& out : results) {
    done.push_back(pool.submit([&a, &b, &out] {
      gemm(kN, kN, kN, 1.0f, a.data(), b.data(), 0.0f, out.data());
    }));
  }
  for (auto& f : done) f.get();
  for (const auto& out : results) EXPECT_EQ(out, serial);
}

TEST_F(GemmNestedPoolTest, RaisedKernelBudgetStaysCorrectAndDeterministic) {
  constexpr std::int64_t kN = 64;
  const auto a = random_matrix(kN * kN, 3);
  const auto b = random_matrix(kN * kN, 4);

  std::vector<float> serial(static_cast<std::size_t>(kN * kN), 0.0f);
  gemm(kN, kN, kN, 1.0f, a.data(), b.data(), 0.0f, serial.data());

  // Concurrent pool tasks each running a budgeted (fan-out-capable) GEMM —
  // the shape of a non-global pool's tasks that raise their kernel budget.
  ThreadPool pool(3);
  std::vector<std::vector<float>> results(
      6, std::vector<float>(static_cast<std::size_t>(kN * kN), 0.0f));
  std::vector<std::future<void>> done;
  for (auto& out : results) {
    done.push_back(pool.submit([&a, &b, &out] {
      KernelBudgetScope budget(2);
      gemm(kN, kN, kN, 1.0f, a.data(), b.data(), 0.0f, out.data());
    }));
  }
  for (auto& f : done) f.get();
  for (const auto& out : results) EXPECT_EQ(out, serial);
}

}  // namespace
}  // namespace dcnas
