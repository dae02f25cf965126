#include "dcnas/common/thread_pool.hpp"

#include <algorithm>
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
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      // Each task starts from the in-worker default budget; a task-scoped
      // KernelBudgetScope must not leak into the next task on this worker.
      t_kernel_budget = default_budget();
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (error && !first_error_) first_error_ = error;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
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

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t width = parallel_width();
  if (width <= 1 || n == 1) {
    fn(begin, end);
    return;
  }
  // Under a finite budget, one chunk per permitted thread keeps concurrent
  // occupancy <= budget; the usual ~4 chunks/worker oversplit would let up
  // to 4x budget workers pick up chunks at once.
  const bool budgeted =
      KernelBudgetScope::current() < pool.size() || t_worker_pool != nullptr;
  const std::int64_t chunks =
      std::min<std::int64_t>(n, budgeted ? width : width * 4);
  const std::int64_t step = (n + chunks - 1) / chunks;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::int64_t remaining = 0;        // guarded by done_mu
  std::exception_ptr first_error;    // guarded by done_mu
  for (std::int64_t c = begin; c < end; c += step) ++remaining;
  for (std::int64_t c = begin; c < end; c += step) {
    const std::int64_t lo = c;
    const std::int64_t hi = std::min<std::int64_t>(c + step, end);
    pool.submit(std::function<void()>([&, lo, hi] {
      std::exception_ptr error;
      try {
        fn(lo, hi);
      } catch (...) {
        error = std::current_exception();
      }
      // Decrement and notify while holding the lock. With an atomic counter
      // decremented outside it, the waiting thread could observe zero and
      // return — destroying done_mu/done_cv on its stack — while this
      // worker is still about to lock them (use-after-free under load).
      std::lock_guard<std::mutex> lock(done_mu);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_all();
    }));
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
    error = first_error;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn) {
  parallel_for_chunked(begin, end, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace dcnas
