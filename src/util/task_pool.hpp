// Deterministic parallel execution: a fixed pool of worker threads with a
// bounded task queue, exception propagation, and index-based fan-out
// helpers.
//
// The design rule that keeps every adopter reproducible: parallelism only
// changes *who* computes a slot, never *where* the result lands. Callers
// pre-size their output, `parallel_for_each(n, fn)` runs fn(i) for every
// i in [0, n) with each invocation writing only slot i, and any
// order-sensitive reduction happens after the join, in index order. The
// same code path with a null pool (or one worker) degenerates to a serial
// loop producing byte-identical results.
//
//   util::TaskPool pool(8);
//   std::vector<double> out(n);
//   util::parallel_for_each(&pool, n, [&](std::size_t i) {
//     out[i] = expensive(i);
//   });
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vodbcast::util {

/// Fixed worker threads draining a bounded FIFO queue. submit() blocks while
/// the queue is full, so producers cannot outrun memory. The pool is
/// reusable across batches: run_indexed() returns once its batch finished
/// and the pool is immediately ready for the next one.
class TaskPool {
 public:
  /// Spawns max(1, threads) workers. `queue_capacity` bounds the number of
  /// submitted-but-unstarted tasks (>= 1). When a worker cannot start, the
  /// ones already started are stopped and joined and the std::system_error
  /// propagates.
  explicit TaskPool(unsigned threads, std::size_t queue_capacity = 1024);

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Drains the queue (pending tasks still run), then joins the workers.
  ~TaskPool();

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task; blocks while the queue is at capacity. Tasks must
  /// not themselves call submit()/run_indexed() on the same pool (the
  /// worker would deadlock waiting on itself).
  void submit(std::function<void()> task);

  /// Runs fn(0) .. fn(n-1) across the workers and blocks until all have
  /// finished. If any invocation throws, the batch still runs to
  /// completion, then the first exception (by completion time) is
  /// rethrown here. Reusable: call again for the next batch.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// max(1, std::thread::hardware_concurrency()).
  [[nodiscard]] static unsigned hardware_threads() noexcept;

 private:
  void worker_loop();
  /// Lets the workers drain the queue and exit, then joins them.
  void stop_and_join();

  std::mutex mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t queue_capacity_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// fn(i) for every i in [0, n). A null pool (or a single-worker pool) runs
/// the plain serial loop — same invocations, same order of effects per
/// slot — so adopters keep one code path for both modes.
template <typename Fn>
void parallel_for_each(TaskPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || pool->thread_count() <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->run_indexed(n, std::function<void(std::size_t)>(std::forward<Fn>(fn)));
}

/// Maps i -> fn(i) into a pre-sized vector; slot i is written only by
/// invocation i, so the output is identical at any thread count.
/// T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> parallel_map(TaskPool* pool, std::size_t n, Fn&& fn) {
  std::vector<T> out(n);
  parallel_for_each(pool, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace vodbcast::util
