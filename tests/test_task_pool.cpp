#include "util/task_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::util {
namespace {

TEST(TaskPoolTest, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4U);
  std::vector<std::atomic<int>> hits(100);
  pool.run_indexed(hits.size(),
                   [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(TaskPoolTest, ZeroThreadsClampsToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1U);
  std::atomic<int> ran{0};
  pool.run_indexed(3, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(TaskPoolTest, EmptyBatchReturnsImmediately) {
  TaskPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(TaskPoolTest, ReusableAcrossBatches) {
  TaskPool pool(3);
  for (int batch = 0; batch < 5; ++batch) {
    std::atomic<int> sum{0};
    pool.run_indexed(10, [&sum](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(TaskPoolTest, PropagatesTheFirstWorkerException) {
  TaskPool pool(4);
  try {
    pool.run_indexed(50, [](std::size_t i) {
      if (i == 17) {
        throw std::runtime_error("boom at 17");
      }
    });
    FAIL() << "expected the worker exception to reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 17");
  }
  // The pool survives the failed batch.
  std::atomic<int> ran{0};
  pool.run_indexed(4, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(TaskPoolTest, BoundedQueueBlocksSubmitWithoutDeadlock) {
  // Capacity 2 with slow tasks forces submit() to block and resume; every
  // task must still run. run_indexed() queues at most one drainer per
  // worker, so it never fills the queue, and a batch on the same small
  // queue must complete too.
  std::atomic<int> ran{0};
  {
    TaskPool pool(2, 2);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    pool.run_indexed(16, [&ran](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(1, 64);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelForEachTest, NullPoolRunsSerialInIndexOrder) {
  std::vector<std::size_t> order;
  parallel_for_each(nullptr, 5, [&order](std::size_t i) {
    order.push_back(i);  // no pool: same thread, ascending order
  });
  ASSERT_EQ(order.size(), 5U);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(ParallelMapTest, SlotsMatchIndices) {
  TaskPool pool(4);
  const auto out = parallel_map<std::string>(
      &pool, 20, [](std::size_t i) { return std::to_string(i * i); });
  ASSERT_EQ(out.size(), 20U);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::to_string(i * i));
  }
}

TEST(ParallelMapTest, NullPoolMatchesPooledResult) {
  TaskPool pool(3);
  const auto fn = [](std::size_t i) { return static_cast<double>(i) * 1.5; };
  EXPECT_EQ(parallel_map<double>(nullptr, 9, fn),
            parallel_map<double>(&pool, 9, fn));
}

/// Spins until done() holds or ten seconds pass; false on the timeout, so
/// an implementation that serializes the two sides fails instead of
/// hanging.
template <typename Done>
bool await_until(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

bool await(const std::atomic<bool>& flag) {
  return await_until([&flag] { return flag.load(); });
}

/// A pool that finishes one more batch after a failed one.
void expect_reusable(TaskPool& pool) {
  std::atomic<int> ran{0};
  parallel_for_each_alongside(
      &pool, 6, [&ran](std::size_t) { ran.fetch_add(1); },
      [&ran] { ran.fetch_add(10); });
  EXPECT_EQ(ran.load(), 16);
}

// A handshake that only concurrency completes: every task announces that
// it started and then waits for serial() to set `go`, and serial() waits
// for a started task before it sets `go`. Run one side after the other and
// the first side's bounded wait fails the test. One worker is enough.
TEST(ParallelForEachAlongsideTest, BatchRunsWhileSerialRuns) {
  for (const unsigned workers : {1U, 2U, 4U}) {
    SCOPED_TRACE(workers);
    TaskPool pool(workers);
    std::atomic<bool> started{false};
    std::atomic<bool> go{false};
    std::atomic<int> saw_go{0};
    bool serial_saw_start = false;
    const auto caller = std::this_thread::get_id();
    std::thread::id serial_thread;
    std::atomic<bool> serial_returned{false};
    std::atomic<int> early_on_caller{0};
    parallel_for_each_alongside(
        &pool, 5,
        [&](std::size_t) {
          // The caller helps with the batch only once serial() returned.
          if (std::this_thread::get_id() == caller &&
              !serial_returned.load()) {
            early_on_caller.fetch_add(1);
          }
          started.store(true);
          if (await(go)) {
            saw_go.fetch_add(1);
          }
        },
        [&] {
          serial_thread = std::this_thread::get_id();
          serial_saw_start = await(started);
          go.store(true);
          serial_returned.store(true);
        });
    EXPECT_TRUE(serial_saw_start);
    EXPECT_EQ(saw_go.load(), 5);
    EXPECT_EQ(serial_thread, caller);
    EXPECT_EQ(early_on_caller.load(), 0);
    expect_reusable(pool);
  }
}

// Every worker parks on a latch that only the batch's last index opens, and
// serial() returns only once all of them parked, so the batch can finish
// only if the calling thread runs that index itself. A caller that idles
// at the barrier instead leaves the workers to their bounded wait, and the
// test fails rather than hangs.
TEST(TaskPoolTest, RunIndexedFinishesWhileEveryWorkerIsBlocked) {
  for (const unsigned workers : {1U, 2U, 4U}) {
    SCOPED_TRACE(workers);
    TaskPool pool(workers);
    const std::size_t last = workers;  // the batch is workers + 1 indices
    std::atomic<unsigned> parked{0};
    std::atomic<bool> open{false};
    std::atomic<unsigned> released{0};
    std::atomic<bool> last_on_caller{false};
    bool all_parked = false;
    const auto caller = std::this_thread::get_id();
    pool.run_indexed(
        workers + 1,
        [&](std::size_t i) {
          if (i == last) {
            last_on_caller.store(std::this_thread::get_id() == caller);
            open.store(true);
            return;
          }
          parked.fetch_add(1);
          if (await(open)) {
            released.fetch_add(1);
          }
        },
        [&] {
          all_parked =
              await_until([&] { return parked.load() == workers; });
        });
    EXPECT_TRUE(all_parked);
    EXPECT_TRUE(last_on_caller.load());
    EXPECT_EQ(released.load(), workers);
    expect_reusable(pool);
  }
}

TEST(ParallelForEachAlongsideTest, SerialExceptionWinsOnceEveryTaskRan) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  try {
    parallel_for_each_alongside(
        &pool, 8,
        [&ran](std::size_t i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          ran.fetch_add(1);
          if (i == 3) {
            throw std::runtime_error("task 3");
          }
        },
        [] { throw std::logic_error("serial"); });
    FAIL() << "expected serial()'s exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "serial");
    EXPECT_EQ(ran.load(), 8);  // rethrown only after the whole batch
  }
  expect_reusable(pool);
}

TEST(ParallelForEachAlongsideTest, LoneTaskExceptionIsRethrown) {
  TaskPool pool(3);
  std::atomic<int> ran{0};
  bool serial_ran = false;
  try {
    parallel_for_each_alongside(
        &pool, 12,
        [&ran](std::size_t i) {
          ran.fetch_add(1);
          if (i == 7) {
            throw std::runtime_error("task 7");
          }
        },
        [&serial_ran] { serial_ran = true; });
    FAIL() << "expected the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
    EXPECT_EQ(ran.load(), 12);
  }
  EXPECT_TRUE(serial_ran);
  expect_reusable(pool);
}

TEST(ParallelForEachAlongsideTest, NullPoolRunsSerialThenTasksInOrder) {
  std::vector<int> order;
  parallel_for_each_alongside(
      nullptr, 4,
      [&order](std::size_t i) { order.push_back(static_cast<int>(i)); },
      [&order] { order.push_back(-1); });
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(ParallelForEachAlongsideTest, EmptyBatchRunsOnlySerial) {
  TaskPool pool(2);
  for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
    int serial_calls = 0;
    parallel_for_each_alongside(
        p, 0, [](std::size_t) { FAIL() << "must not run"; },
        [&serial_calls] { ++serial_calls; });
    EXPECT_EQ(serial_calls, 1);
  }
  expect_reusable(pool);
}

TEST(TaskPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(TaskPool::hardware_threads(), 1U);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Address space the calling process has mapped (VmSize), in bytes.
std::uint64_t mapped_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Death-test child: caps its address space at its current size + 64 MiB,
/// far short of 64 default thread stacks, and asks for 64 workers. Exits 0
/// when the pool reports the failure as std::system_error.
[[noreturn]] void start_pool_under_address_cap() {
  const std::uint64_t mapped = mapped_bytes();
  const rlim_t cap = mapped + (rlim_t{64} << 20);
  const rlimit limit{cap, cap};
  if (mapped == 0 || ::setrlimit(RLIMIT_AS, &limit) != 0) {
    std::_Exit(3);
  }
  try {
    const TaskPool pool(64);
    std::_Exit(2);  // every worker started: the cap did not bind
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
}

// A worker thread that cannot start used to abort the process: unwinding
// the constructor destroyed the joinable workers already started, which
// calls std::terminate. The pool must stop and join what it started and
// hand the std::system_error to the caller.
TEST(TaskPoolDeathTest, ThreadThatCannotStartThrowsInsteadOfAborting) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer shadow mappings do not fit an address-space "
                    "cap";
  }
  EXPECT_EXIT(start_pool_under_address_cap(), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace vodbcast::util
