#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "util/contracts.hpp"

namespace vodbcast::util {

namespace {

/// Shared state of one run_indexed() batch: the next index to hand out and
/// the completion count. Drainer tasks can outlive the call (one still
/// queued when the caller has drained the batch finds no index left), so
/// they hold the state through a shared_ptr and touch `fn` only for an
/// index they claimed.
struct BatchState {
  BatchState(std::size_t n, const std::function<void(std::size_t)>& f)
      : size(n), fn(&f), remaining(n) {}

  const std::size_t size;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining;
  std::exception_ptr error;  ///< first failure (by completion time)
};

/// Runs fn(i) for every index still unclaimed in `state`, one at a time,
/// until none is left.
void drain(BatchState& state) {
  for (;;) {
    const std::size_t i = state.next.fetch_add(1);
    if (i >= state.size) {
      return;
    }
    std::exception_ptr error;
    try {
      (*state.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    const std::scoped_lock lock(state.mutex);
    if (error != nullptr && state.error == nullptr) {
      state.error = error;
    }
    if (--state.remaining == 0) {
      state.done.notify_all();
    }
  }
}

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
  auto state = std::make_shared<BatchState>(n, fn);
  const std::size_t drainers = std::min<std::size_t>(n, workers_.size());
  for (std::size_t k = 0; k < drainers; ++k) {
    submit([state] { drain(*state); });
  }
  // The drainers reference fn and the caller's state, so a throwing
  // serial() must not unwind this frame before the batch has finished.
  std::exception_ptr serial_error;
  if (serial) {
    try {
      serial();
    } catch (...) {
      serial_error = std::current_exception();
    }
  }
  // Help instead of idling: indices no worker has claimed yet run here, so
  // a batch finishes even while every worker is descheduled or blocked.
  drain(*state);
  // Move the error out under the lock: the last drainer to be destroyed
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
