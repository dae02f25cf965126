#include "dcnas/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dcnas {
namespace {

/// Every future must be ready once wait_idle() has returned.
void expect_all_delivered(std::vector<std::future<void>>& futures) {
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    f.get();
  }
}

// Stress: many external submitter threads racing against pool workers and
// against each other. Verifies no task is lost or double-run under heavy
// submit contention.
TEST(ThreadPoolStressTest, ManyConcurrentSubmittersLoseNoTasks) {
  constexpr int kSubmitters = 8;
  constexpr int kTasksPerSubmitter = 500;
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &executed, &mine = futures[t]] {
      for (int i = 0; i < kTasksPerSubmitter; ++i) {
        mine.push_back(pool.submit([&executed] { executed.fetch_add(1); }));
      }
    });
  }
  for (auto& th : submitters) th.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksPerSubmitter);
  for (auto& mine : futures) expect_all_delivered(mine);
}

// Stress: wait_idle called from several threads while work is still being
// submitted from others. Every wait_idle must return (no missed wakeup) and
// must only return at a moment when the pool had nothing queued or running.
TEST(ThreadPoolStressTest, WaitIdleUnderContentionAlwaysReturns) {
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::atomic<int> submitted{0};
  constexpr int kRounds = 50;

  std::vector<std::future<void>> futures;
  std::thread submitter([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < 20; ++i) {
        futures.push_back(pool.submit([&executed] { executed.fetch_add(1); }));
        submitted.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&pool] {
      for (int i = 0; i < 25; ++i) pool.wait_idle();
    });
  }
  for (auto& th : waiters) th.join();
  submitter.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), submitted.load());
  EXPECT_EQ(executed.load(), kRounds * 20);
  expect_all_delivered(futures);
}

// Stress: tasks that themselves submit follow-up work, interleaved with
// wait_idle from the outside — the recursive-producer pattern the serving
// layer leans on.
TEST(ThreadPoolStressTest, TasksSubmittingTasksDrainCompletely) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  std::mutex children_mu;
  std::vector<std::future<void>> parents, children;
  for (int i = 0; i < 64; ++i) {
    parents.push_back(pool.submit([&] {
      executed.fetch_add(1);
      std::future<void> child =
          pool.submit([&executed] { executed.fetch_add(1); });
      std::lock_guard<std::mutex> lock(children_mu);
      children.push_back(std::move(child));
    }));
  }
  // wait_idle must also cover the tasks enqueued *by* tasks: in_flight
  // stays nonzero until each parent finishes, and each child is queued
  // before its parent's in_flight decrement.
  pool.wait_idle();
  EXPECT_EQ(executed.load(), 128);
  expect_all_delivered(parents);
  ASSERT_EQ(children.size(), 64u);
  expect_all_delivered(children);
}

// Stress: four non-pool threads issue 10^5 tiny fork-join rounds between
// them at once. Each round's job record lives on its caller's stack, so a
// helper touching a record after its round returned, or a lost wake-up,
// shows here (and under TSan, which runs this test).
TEST(ThreadPoolStressTest, ConcurrentForkJoinRoundsKeepJobRecordsAlive) {
  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 25000;
  std::vector<std::int64_t> totals(kThreads, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&total = totals[static_cast<std::size_t>(t)]] {
      for (int r = 0; r < kRoundsPerThread; ++r) {
        std::atomic<std::int64_t> round{0};  // dies with the round
        parallel_for_chunked(0, 8, [&round](std::int64_t lo, std::int64_t hi) {
          round.fetch_add(hi - lo, std::memory_order_relaxed);
        });
        total += round.load(std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : callers) th.join();
  for (const std::int64_t total : totals) {
    EXPECT_EQ(total, std::int64_t{kRoundsPerThread} * 8);
  }
}

}  // namespace
}  // namespace dcnas
