#include "util/task_pool.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"

namespace vodbcast::util {

namespace {

/// Shared completion state for one run_indexed() batch. Tasks outlive the
/// call frame only until the final decrement, but heap-allocating the state
/// (shared_ptr) keeps the teardown safe even if the caller rethrows early.
struct BatchState {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = 0;
  std::exception_ptr error;  ///< first failure (by completion time)
};

}  // namespace

TaskPool::TaskPool(unsigned threads, std::size_t queue_capacity)
    : queue_capacity_(std::max<std::size_t>(1, queue_capacity)) {
  const unsigned count = std::max(1U, threads);
  workers_.reserve(count);
  try {
    for (unsigned i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A thread that cannot start (std::system_error): destroying the
    // joinable workers already started would call std::terminate.
    stop_and_join();
    throw;
  }
}

TaskPool::~TaskPool() { stop_and_join(); }

void TaskPool::stop_and_join() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void TaskPool::submit(std::function<void()> task) {
  VB_EXPECTS(task != nullptr);
  {
    std::unique_lock lock(mutex_);
    queue_not_full_.wait(
        lock, [this] { return queue_.size() < queue_capacity_ || stopping_; });
    VB_EXPECTS_MSG(!stopping_, "submit() on a stopping TaskPool");
    queue_.push_back(std::move(task));
  }
  queue_not_empty_.notify_one();
}

void TaskPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      queue_not_empty_.wait(lock,
                            [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    task();  // exceptions are the batch's responsibility (see run_indexed)
  }
}

void TaskPool::run_indexed(std::size_t n,
                           const std::function<void(std::size_t)>& fn,
                           const std::function<void()>& serial) {
  auto state = std::make_shared<BatchState>();
  state->remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    submit([state, &fn, i] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      const std::scoped_lock lock(state->mutex);
      if (error != nullptr && state->error == nullptr) {
        state->error = error;
      }
      if (--state->remaining == 0) {
        state->done.notify_all();
      }
    });
  }
  // The tasks reference fn and the caller's state, so a throwing serial()
  // must not unwind this frame before the batch has finished.
  std::exception_ptr serial_error;
  if (serial) {
    try {
      serial();
    } catch (...) {
      serial_error = std::current_exception();
    }
  }
  // Move the error out under the lock: the last task lambda to be destroyed
  // releases the final BatchState reference on a *worker* thread, and that
  // teardown must not also release the exception object the caller is busy
  // rethrowing — the exception's lifetime has to end on this thread.
  std::exception_ptr error;
  {
    std::unique_lock lock(state->mutex);
    state->done.wait(lock, [&state] { return state->remaining == 0; });
    error = std::move(state->error);
  }
  if (serial_error != nullptr) {
    std::rethrow_exception(serial_error);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

unsigned TaskPool::hardware_threads() noexcept {
  return std::max(1U, std::thread::hardware_concurrency());
}

}  // namespace vodbcast::util
