#include "dcnas/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "dcnas/common/error.hpp"

namespace dcnas {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
  for (auto& f : futures) f.get();
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, SizeReflectsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(std::function<void()>{}), InvalidArgument);
}

TEST(ThreadPoolTest, FutureSubmitDeliversValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, FutureSubmitDeliversVoidAndMoveOnlyCallables) {
  // `seen` lives outside the task: the worker destroys the task (and the
  // pointer it owns) after the future is ready, possibly after get().
  std::atomic<bool> seen{false};
  ThreadPool pool(1);
  auto owned = std::make_unique<int>(7);
  std::future<void> f = pool.submit(
      [owned = std::move(owned), &seen] { seen.store(*owned == 7); });
  f.get();
  EXPECT_TRUE(seen.load());
}

TEST(ThreadPoolTest, FutureSubmitPropagatesException) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit(
      []() -> int { throw InvalidArgument("boom from task"); });
  EXPECT_THROW(f.get(), InvalidArgument);
  // The exception went through the future, not the fire-and-forget slot.
  pool.wait_idle();
  EXPECT_FALSE(pool.pending_error());
}

TEST(ThreadPoolTest, WaitIdleRethrowsFireAndForgetException) {
  ThreadPool pool(2);
  pool.submit(std::function<void()>(
      [] { throw InvalidArgument("leaked from fire-and-forget"); }));
  EXPECT_THROW(pool.wait_idle(), InvalidArgument);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterFireAndForgetThrow) {
  ThreadPool pool(2);
  pool.submit(std::function<void()>([] { throw InvalidArgument("first"); }));
  EXPECT_THROW(pool.wait_idle(), InvalidArgument);
  // The error slot is cleared and the workers survived.
  EXPECT_FALSE(pool.pending_error());
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit(std::function<void()>([&counter] { counter.fetch_add(1); }));
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, FirstFireAndForgetErrorWins) {
  ThreadPool pool(1);
  pool.submit(std::function<void()>([] { throw InvalidArgument("first"); }));
  pool.submit(std::function<void()>([] { throw InvalidArgument("second"); }));
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must rethrow";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
}

TEST(ThreadPoolTest, InWorkerIsTrueOnlyInsideOwnWorkers) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.in_worker());
  std::future<bool> own = pool.submit([&pool] { return pool.in_worker(); });
  EXPECT_TRUE(own.get());
  ThreadPool other(1);
  std::future<bool> foreign =
      other.submit([&pool] { return pool.in_worker(); });
  EXPECT_FALSE(foreign.get());
}

TEST(KernelBudgetScopeTest, DefaultsUnlimitedOutsideWorkersAndOneInside) {
  ThreadPool pool(1);
  EXPECT_GE(KernelBudgetScope::current(), ThreadPool::global().size());
  std::future<std::size_t> inside =
      pool.submit([] { return KernelBudgetScope::current(); });
  EXPECT_EQ(inside.get(), 1u);
}

TEST(KernelBudgetScopeTest, NestsAndRestores) {
  const std::size_t outer = KernelBudgetScope::current();
  {
    KernelBudgetScope budget(2);
    EXPECT_EQ(KernelBudgetScope::current(), 2u);
    {
      KernelBudgetScope inner(1);
      EXPECT_EQ(KernelBudgetScope::current(), 1u);
    }
    EXPECT_EQ(KernelBudgetScope::current(), 2u);
  }
  EXPECT_EQ(KernelBudgetScope::current(), outer);
}

TEST(KernelBudgetScopeTest, RaisedBudgetLetsPoolTaskFanOut) {
  // A non-global pool's worker may fan a parallel_for onto the global pool
  // when its budget allows it; the loop must still cover the exact range.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(512);
  std::future<void> done = pool.submit([&] {
    KernelBudgetScope budget(4);
    parallel_for(0, 512, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
  });
  done.get();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, CoversExactRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> count{0};
  parallel_for(5, 5, [&](std::int64_t) { count.fetch_add(1); });
  parallel_for(5, 3, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
}

TEST(ParallelForTest, SingleElementRange) {
  std::atomic<int> seen{-1};
  parallel_for(41, 42, [&](std::int64_t i) { seen.store(static_cast<int>(i)); });
  EXPECT_EQ(seen.load(), 41);
}

TEST(ParallelForChunkedTest, ChunksPartitionTheRange) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for_chunked(0, 257, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_LT(lo, hi);
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ComputesCorrectSum) {
  // Sum via per-iteration atomics as a correctness (not performance) check.
  std::atomic<long long> total{0};
  parallel_for(1, 1001, [&](std::int64_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 500500);
}

TEST(ParallelForTest, NestedInvocationCompletes) {
  // parallel_for inside a pool task must not deadlock: the inner call runs
  // inline when no spare workers exist.
  std::atomic<int> count{0};
  parallel_for(0, 4, [&](std::int64_t) {
    parallel_for(0, 4, [&](std::int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

}  // namespace
}  // namespace dcnas
