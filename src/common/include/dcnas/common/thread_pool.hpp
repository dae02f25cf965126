#pragma once
/// \file thread_pool.hpp
/// \brief A lightweight work-sharing thread pool plus parallel_for helpers.
///
/// dcnas targets resource-limited devices, so every parallel path degrades
/// gracefully: when the pool has one worker (or the caller's kernel budget
/// is 1), parallel_for executes inline with zero synchronization overhead.
/// The pool follows the C++ Core Guidelines advice of joining threads in the
/// destructor (gsl::joining_thread semantics).
///
/// parallel_for* is a fork-join round, not a batch of queued tasks: the
/// caller publishes one job record (on its own stack) with an atomic chunk
/// cursor, wakes at most width − 1 helpers, and claims chunks itself. When
/// the cursor runs out it takes back every helper slot no worker picked up,
/// so it only ever waits for helpers already running a chunk. A round
/// allocates nothing on the heap.
///
/// Exception contract:
///  - The future-returning submit() delivers the task's exception through
///    the returned std::future (std::packaged_task semantics).
///  - Fire-and-forget submit(std::function<void()>) captures the first
///    escaping exception; the next wait_idle() rethrows it (later ones are
///    dropped, counted via pending_error()). Exceptions never kill workers.
///  - parallel_for / parallel_for_chunked rethrow the first iteration
///    exception in the calling thread after every chunk has finished
///    (remaining chunks still run), whether the caller or a helper ran it.
///
/// Nested-execution rule (two-level schedulers — see DESIGN.md §9):
///  - A parallel_for* call made from a worker of the *global* pool always
///    runs inline: re-enqueueing on the pool the caller occupies is a
///    deadlock/oversubscription hazard.
///  - A call made from a worker of any *other* pool (e.g. the NAS trial
///    scheduler's dedicated pool) runs inline by default, but may fan out
///    onto the global pool up to the caller's kernel-thread budget when a
///    KernelBudgetScope raised it. This is how T concurrent trials avoid
///    multiplying into T x full-kernel-fan-out thread thrash.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dcnas {

template <class Sig>
class FunctionRef;

/// Non-owning reference to a callable, for parameters that are only called
/// before the function returns. Binding one never allocates (a
/// std::function of a lambda with more than two captures does).
template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F, std::enable_if_t<!std::is_same_v<std::decay_t<F>,
                                                      FunctionRef>, int> = 0>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): binds like a
                      // std::function parameter does
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Chunk body of a fork-join round: fn(chunk_begin, chunk_end).
using ChunkFn = FunctionRef<void(std::int64_t, std::int64_t)>;

/// Fixed-size pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Creates a pool with \p num_threads workers; 0 means
  /// hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Fire-and-forget enqueue. An escaping exception is captured (first one
  /// wins) and rethrown from the next wait_idle(); it never terminates the
  /// process or the worker.
  void submit(std::function<void()> task);

  /// Future-returning enqueue: the task's return value — or the exception
  /// it threw — is delivered through the returned future. Discarding the
  /// future discards the exception with it, so fire-and-forget callers
  /// should use the std::function overload instead.
  template <class F, class R = std::invoke_result_t<std::decay_t<F>&>,
            std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, std::function<void()>>, int> = 0>
  [[nodiscard]] std::future<R> submit(F&& f) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    submit(std::function<void()>([task]() mutable { (*task)(); }));
    return future;
  }

  /// Blocks until every queued and running task has completed, then
  /// rethrows the first exception a fire-and-forget task leaked (if any),
  /// clearing it. The pool stays usable after the throw.
  void wait_idle();

  /// True when a fire-and-forget task has thrown since the last wait_idle.
  bool pending_error() const;

  std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers.
  bool in_worker() const;

  /// Process-wide pool shared by parallel_for; sized to the machine.
  static ThreadPool& global();

 private:
  struct ForkJoin;  // one parallel_for round's job record (thread_pool.cpp)
  friend void parallel_for_chunked(std::int64_t, std::int64_t, ChunkFn);

  void worker_loop();
  /// Runs \p job's chunks on the calling thread and on up to \p helpers
  /// workers; returns once every chunk has finished.
  void fork_join(ForkJoin& job, std::int64_t helpers);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::condition_variable cv_join_;  ///< a round's last running helper left
  std::size_t in_flight_ = 0;
  ForkJoin* jobs_ = nullptr;  ///< rounds with helper slots open, guarded by mu_
  std::exception_ptr first_error_;  ///< guarded by mu_
  bool stopping_ = false;
};

/// RAII thread-local cap on how many global-pool workers a parallel_for*
/// issued from the current thread may fan out over. Inside a pool worker
/// the default budget is 1 (run inline); a scheduler that wants its tasks
/// to use some kernel parallelism raises it for the task's duration:
///
///   KernelBudgetScope budget(2);   // this task may use <= 2 kernel threads
///   gemm(...);                     // parallel_for fans out over <= 2
///
/// Outside any pool worker the default is unlimited (the global pool size).
/// Scopes nest; each restores the previous budget on destruction. The
/// budget never overrides the hard inline rule for global-pool workers.
class KernelBudgetScope {
 public:
  explicit KernelBudgetScope(std::size_t max_threads);
  ~KernelBudgetScope();

  KernelBudgetScope(const KernelBudgetScope&) = delete;
  KernelBudgetScope& operator=(const KernelBudgetScope&) = delete;

  /// The budget in effect for the calling thread.
  static std::size_t current();

 private:
  std::size_t previous_;
};

/// How many threads a parallel_for* call issued from the calling thread
/// fans out over: the global pool size capped by the kernel budget, and 1
/// inside a global-pool worker. Kernels use it to shape their task grids.
std::int64_t parallel_width();

/// Runs fn(i) for i in [begin, end) potentially in parallel, blocking until
/// all iterations finish. Iterations must be independent. Work is split into
/// contiguous chunks (up to 4 per thread of parallel_width()) that the
/// caller and its helpers claim from a shared cursor. The first exception
/// thrown by an iteration is rethrown in the calling thread once every
/// chunk has finished (remaining chunks still run).
void parallel_for(std::int64_t begin, std::int64_t end,
                  FunctionRef<void(std::int64_t)> fn);

/// Chunked variant: fn(chunk_begin, chunk_end) — preferred in hot loops so
/// the callee can keep its own locals across iterations.
void parallel_for_chunked(std::int64_t begin, std::int64_t end, ChunkFn fn);

}  // namespace dcnas
