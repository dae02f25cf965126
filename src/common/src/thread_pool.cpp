#include "dcnas/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "dcnas/common/error.hpp"

namespace dcnas {

namespace {
// Which pool (if any) owns the calling thread. Nested parallel_for calls
// from a *global*-pool worker run inline (re-entering the pool the caller
// occupies could deadlock when every worker blocks on sub-tasks queued
// behind the tasks occupying them). Workers of *other* pools (e.g. the NAS
// trial scheduler's) may fan out onto the global pool, bounded by the
// thread-local kernel budget below.
thread_local const ThreadPool* t_worker_pool = nullptr;

// Kernel-thread budget for parallel_for* issued from this thread. Inside a
// pool worker the default is 1 (inline); outside, unlimited.
constexpr std::size_t kUnlimitedBudget =
    std::numeric_limits<std::size_t>::max();
thread_local std::size_t t_kernel_budget = kUnlimitedBudget;

std::size_t default_budget() {
  return t_worker_pool != nullptr ? 1 : kUnlimitedBudget;
}
}  // namespace

/// One parallel_for round, on the caller's stack. Chunk c is
/// [begin + c·step, min(begin + (c+1)·step, end)); whoever runs a chunk
/// claims it from `cursor`, so a chunk runs exactly once whichever thread
/// gets it.
struct ThreadPool::ForkJoin {
  explicit ForkJoin(ChunkFn f) : fn(f) {}

  ChunkFn fn;
  std::int64_t begin = 0, end = 0, step = 1, chunks = 0;
  std::atomic<std::int64_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< written once, by whoever set `failed`
  // Guarded by ThreadPool::mu_:
  std::int64_t open_slots = 0;  ///< helper slots not yet taken
  std::int64_t running = 0;     ///< helpers that took a slot, not finished
  ForkJoin* next = nullptr;     ///< in ThreadPool::jobs_

  void run_chunks() {
    for (;;) {
      const std::int64_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::int64_t lo = begin + c * step;
      try {
        fn(lo, std::min(lo + step, end));
      } catch (...) {
        if (!failed.exchange(true, std::memory_order_relaxed)) {
          error = std::current_exception();
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  DCNAS_CHECK(static_cast<bool>(task), "ThreadPool::submit requires a task");
  {
    std::lock_guard<std::mutex> lock(mu_);
    DCNAS_CHECK(!stopping_, "ThreadPool::submit after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::pending_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_ != nullptr;
}

bool ThreadPool::in_worker() const { return t_worker_pool == this; }

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_task_.wait(lock, [this] {
      return stopping_ || jobs_ != nullptr || !queue_.empty();
    });
    if (ForkJoin* job = jobs_) {
      // Help the newest open round; its last slot closes it.
      if (--job->open_slots == 0) jobs_ = job->next;
      ++job->running;
      lock.unlock();
      t_kernel_budget = default_budget();
      job->run_chunks();
      lock.lock();
      // Once mu_ is released with `running` at zero the caller may return
      // and free `job`, so nothing below touches it.
      if (--job->running == 0) cv_join_.notify_all();
      continue;
    }
    if (queue_.empty()) return;  // stopping_ and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    std::exception_ptr error;
    try {
      // Each task starts from the in-worker default budget; a task-scoped
      // KernelBudgetScope must not leak into the next task on this worker.
      t_kernel_budget = default_budget();
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // release captures before reporting the task done
    lock.lock();
    --in_flight_;
    if (error && !first_error_) first_error_ = error;
    if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
  }
}

void ThreadPool::fork_join(ForkJoin& job, std::int64_t helpers) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.open_slots = helpers;
    job.next = jobs_;
    jobs_ = &job;
  }
  for (std::int64_t h = 0; h < helpers; ++h) cv_task_.notify_one();
  job.run_chunks();
  std::unique_lock<std::mutex> lock(mu_);
  if (job.open_slots > 0) {
    // Every chunk is claimed: take back the slots no worker picked up, so
    // the caller never waits for a helper that has not started.
    ForkJoin** link = &jobs_;
    while (*link != &job) link = &(*link)->next;
    *link = job.next;
    job.open_slots = 0;
  }
  cv_join_.wait(lock, [&job] { return job.running == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;  // sized to hardware_concurrency
  return pool;
}

KernelBudgetScope::KernelBudgetScope(std::size_t max_threads)
    : previous_(t_kernel_budget) {
  t_kernel_budget = std::max<std::size_t>(1, max_threads);
}

KernelBudgetScope::~KernelBudgetScope() { t_kernel_budget = previous_; }

std::size_t KernelBudgetScope::current() { return t_kernel_budget; }

std::int64_t parallel_width() {
  // The pool size capped by the caller's kernel budget. Global-pool workers
  // always run inline regardless of budget (hard deadlock-avoidance rule);
  // other pools' workers default to inline (budget 1) unless a
  // KernelBudgetScope raised their budget.
  const ThreadPool& pool = ThreadPool::global();
  if (pool.in_worker()) return 1;
  return static_cast<std::int64_t>(
      std::min<std::size_t>(pool.size(), KernelBudgetScope::current()));
}

void parallel_for_chunked(std::int64_t begin, std::int64_t end, ChunkFn fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const std::int64_t width = parallel_width();
  if (width <= 1 || n == 1) {
    fn(begin, end);
    return;
  }
  // About 4 chunks per thread balance uneven chunks; the caller plus
  // width - 1 helpers keep concurrent occupancy <= width (and so <= the
  // kernel budget) however many chunks there are.
  ThreadPool::ForkJoin job(fn);
  job.begin = begin;
  job.end = end;
  job.step = (n + width * 4 - 1) / (width * 4);
  job.chunks = (n + job.step - 1) / job.step;
  ThreadPool::global().fork_join(job, std::min(width, job.chunks) - 1);
  if (job.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(job.error);
  }
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  FunctionRef<void(std::int64_t)> fn) {
  parallel_for_chunked(begin, end, [fn](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace dcnas
