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
//
// `parallel_for_each_alongside` is the pipeline step: the calling thread
// runs a serial stage while the workers run the batch, so a loop whose
// stages touch disjoint state keeps every core busy and still has one
// code path for the serial and the pooled run. Once the serial stage
// returns, the caller runs the batch's unclaimed indices itself instead of
// waiting, so one descheduled worker cannot stall the step.
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

  /// Runs fn(0) .. fn(n-1) and blocks until all have finished. Indices are
  /// handed out from an atomic counter to at most thread_count() drainer
  /// tasks on the workers and, once serial() returned, to the calling
  /// thread, which drains beside them instead of idling at the barrier.
  /// If any invocation throws, the batch still runs to completion, then
  /// the first exception (by completion time) is rethrown here. Reusable:
  /// call again for the next batch.
  ///
  /// A non-empty `serial` runs on the calling thread once the drainers are
  /// queued, beside the batch; no index runs on the calling thread before
  /// serial() returned. The call still returns or throws only after every
  /// index finished, and an exception from serial() is rethrown in
  /// preference to the batch's.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn,
                   const std::function<void()>& serial = {});

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

/// serial() on the calling thread while fn(i) for every i in [0, n) runs on
/// the pool's workers — one worker is enough for the overlap — and, once
/// serial() returned, on the calling thread too. Returns once serial() and
/// every fn(i) finished; if any of them threw, serial()'s
/// exception is rethrown, otherwise the batch's first (by completion time).
/// serial() and the batch must touch disjoint state. A null pool runs
/// serial(), then fn(0) .. fn(n-1) in index order, so the pooled and the
/// serial run share one loop and produce the same effects.
template <typename Fn, typename Serial>
void parallel_for_each_alongside(TaskPool* pool, std::size_t n, Fn&& fn,
                                 Serial&& serial) {
  if (pool == nullptr) {
    serial();
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  pool->run_indexed(n, std::function<void(std::size_t)>(std::forward<Fn>(fn)),
                    std::function<void()>(std::forward<Serial>(serial)));
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
