/// The parallel_for fork-join: the caller works, a round allocates nothing,
/// exceptions surface once after every chunk, and the nested-pool and
/// kernel-budget rules hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dcnas/common/thread_pool.hpp"

// Every operator-new call in this binary is counted. The replacements are
// kept out of line so no test body pairs an inlined free() with the
// runtime's operator new.
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
__attribute__((noinline)) void* operator new[](std::size_t size,
                                               const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dcnas {
namespace {

using Clock = std::chrono::steady_clock;

/// Spins until `flag` is set or 10 s pass; false on timeout, so a broken
/// fork-join fails the test instead of hanging it.
bool await(const std::atomic<bool>& flag) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

bool has_helpers() { return parallel_width() > 1; }

TEST(ParallelForForkJoinTest, CallerRunsAtLeastOneChunk) {
  if (!has_helpers()) GTEST_SKIP() << "needs a global pool of >= 2";
  // Helper chunks block until the caller has run one. With at most
  // width - 1 helpers and 16 chunks, the caller must claim a chunk itself;
  // a caller that only waited would leave the helpers blocked.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> helper_timed_out{false};
  std::atomic<int> chunks{0};
  parallel_for_chunked(0, 16, [&](std::int64_t lo, std::int64_t hi) {
    chunks.fetch_add(static_cast<int>(hi - lo));
    if (std::this_thread::get_id() == caller) {
      caller_ran.store(true);
    } else if (!await(caller_ran)) {
      helper_timed_out.store(true);
    }
  });
  EXPECT_TRUE(caller_ran.load());
  EXPECT_FALSE(helper_timed_out.load());
  EXPECT_EQ(chunks.load(), 16);
}

TEST(ParallelForForkJoinTest, RoundsAfterWarmupAllocateNothing) {
  // Several captures: a std::function of this lambda would heap-allocate.
  std::atomic<std::int64_t> sum{0};
  std::vector<std::int64_t> weights(64, 3);
  const std::int64_t scale = 2;
  const auto body = [&sum, &weights, scale](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      local += weights[static_cast<std::size_t>(i)] * scale;
    }
    sum.fetch_add(local, std::memory_order_relaxed);
  };
  for (int r = 0; r < 100; ++r) parallel_for_chunked(0, 64, body);
  const std::int64_t before = g_allocations.load();
  constexpr int kRounds = 10000;
  for (int r = 0; r < kRounds; ++r) {
    if (r % 2 == 0) {
      parallel_for_chunked(0, 64, body);
    } else {
      parallel_for(0, 64, [&sum, &weights, scale](std::int64_t i) {
        sum.fetch_add(weights[static_cast<std::size_t>(i)] * scale,
                      std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(sum.load(), (100 + kRounds) * 64 * 3 * 2);
}

TEST(ParallelForForkJoinTest, CallerChunkExceptionIsRethrownOnceAfterAll) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> thrown{false};
  std::atomic<int> finished{0};
  int catches = 0;
  try {
    parallel_for_chunked(0, 16, [&](std::int64_t lo, std::int64_t hi) {
      if (std::this_thread::get_id() == caller) {
        caller_ran.store(true);
        if (!thrown.exchange(true)) {
          finished.fetch_add(static_cast<int>(hi - lo));
          throw std::runtime_error("caller chunk");
        }
      } else {
        await(caller_ran);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(static_cast<int>(hi - lo));
    });
  } catch (const std::runtime_error& e) {
    ++catches;
    EXPECT_STREQ(e.what(), "caller chunk");
    EXPECT_EQ(finished.load(), 16);  // every chunk ran before the rethrow
  }
  EXPECT_EQ(catches, 1);
  // Nothing stale surfaces in the next round.
  EXPECT_NO_THROW(
      parallel_for_chunked(0, 16, [](std::int64_t, std::int64_t) {}));
}

TEST(ParallelForForkJoinTest, HelperChunkExceptionIsRethrownOnceAfterAll) {
  if (!has_helpers()) GTEST_SKIP() << "needs a global pool of >= 2";
  // The caller's chunks wait until a helper has run one, so a helper does.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_ran{false};
  std::atomic<bool> thrown{false};
  std::atomic<int> finished{0};
  int catches = 0;
  try {
    parallel_for_chunked(0, 16, [&](std::int64_t lo, std::int64_t hi) {
      if (std::this_thread::get_id() == caller) {
        await(helper_ran);
      } else {
        helper_ran.store(true);
        if (!thrown.exchange(true)) {
          finished.fetch_add(static_cast<int>(hi - lo));
          throw std::runtime_error("helper chunk");
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      finished.fetch_add(static_cast<int>(hi - lo));
    });
  } catch (const std::runtime_error& e) {
    ++catches;
    EXPECT_STREQ(e.what(), "helper chunk");
    EXPECT_EQ(finished.load(), 16);
  }
  EXPECT_EQ(catches, 1);
  EXPECT_TRUE(helper_ran.load());
  EXPECT_NO_THROW(
      parallel_for_chunked(0, 16, [](std::int64_t, std::int64_t) {}));
}

TEST(ParallelForForkJoinTest, GlobalPoolWorkerRunsInline) {
  std::future<void> done = ThreadPool::global().submit([] {
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::pair<std::int64_t, std::int64_t>> calls;
    bool other_thread = false;
    parallel_for_chunked(0, 64, [&](std::int64_t lo, std::int64_t hi) {
      calls.emplace_back(lo, hi);  // no lock: inline means one thread
      other_thread = other_thread || std::this_thread::get_id() != self;
    });
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].first, 0);
    EXPECT_EQ(calls[0].second, 64);
    EXPECT_FALSE(other_thread);
  });
  done.get();
}

/// Largest number of threads inside `fn` at once over one parallel_for of
/// 64 chunks of ~100 us each.
int peak_occupancy() {
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  parallel_for_chunked(0, 64, [&](std::int64_t, std::int64_t) {
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    inside.fetch_sub(1);
  });
  return peak.load();
}

TEST(ParallelForForkJoinTest, OccupancyStaysWithinKernelBudget) {
  {
    KernelBudgetScope budget(2);
    EXPECT_LE(peak_occupancy(), 2);
  }
  // A non-global pool's worker (inline by default) raised to a budget of 3.
  ThreadPool pool(1);
  std::future<int> peak = pool.submit([] {
    KernelBudgetScope budget(3);
    return peak_occupancy();
  });
  EXPECT_LE(peak.get(), 3);
  std::future<int> inline_peak = pool.submit([] { return peak_occupancy(); });
  EXPECT_EQ(inline_peak.get(), 1);
}

}  // namespace
}  // namespace dcnas
