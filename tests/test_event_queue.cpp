#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "util/contracts.hpp"

namespace vodbcast::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A wide equal-time burst exercises the 4-ary sift paths well past one
// node's worth of children.
TEST(EventQueueTest, LargeEqualTimeBurstKeepsInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 1000; ++i) {
    q.schedule(7.0, [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  std::vector<int> expected(1000);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

// FIFO order must survive slab recycling: fire a wave (returning every slot
// to the free list, which reverses their order), then schedule a fresh
// equal-time wave into the recycled slots.
TEST(EventQueueTest, EqualTimeOrderSurvivesSlabRecycling) {
  EventQueue q;
  std::vector<int> fired;
  for (int round = 0; round < 4; ++round) {
    const double at = static_cast<double>(round + 1);
    for (int i = 0; i < 32; ++i) {
      q.schedule(at, [&fired, round, i] { fired.push_back(round * 32 + i); });
    }
    while (q.step()) {
    }
  }
  std::vector<int> expected(4 * 32);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
  // Recycling, not growth: four waves of 32 fit in 32 slots.
  EXPECT_EQ(q.slab_slots(), 32U);
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] { fired.push_back(1.0); });
  q.schedule(5.0, [&] { fired.push_back(5.0); });
  q.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_EQ(q.pending(), 1U);
}

// Pins the documented run_until contract: the clock advances to `until`
// even when the queue drains before the horizon (idle time passes), and
// leftover events survive for a later run (the scheduled-multicast server
// relies on both for its horizon accounting).
TEST(EventQueueTest, RunUntilAdvancesClockThroughIdleTime) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.run_until(10.0);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now(), 10.0);  // not 1.0: idle time advanced too
}

TEST(EventQueueTest, RunUntilNeverMovesTimeBackwards) {
  EventQueue q;
  q.run_until(5.0);
  q.run_until(3.0);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueueTest, RunUntilLeavesLaterEventsPendingAndFirable) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(1.0, [&] { fired.push_back(1.0); });
  q.schedule(7.0, [&] { fired.push_back(7.0); });
  q.schedule(9.0, [&] { fired.push_back(9.0); });
  q.run_until(3.0);
  EXPECT_EQ(q.pending(), 2U);  // leftover-queue accounting
  q.run_until(8.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 7.0}));
  EXPECT_EQ(q.pending(), 1U);
  q.run_until(20.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 7.0, 9.0}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 4) {
      q.schedule(q.now() + 1.0, chain);
    }
  };
  q.schedule(0.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(count, 4);
  EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

// Scheduling at the *current* time from inside a callback is legal and the
// new event joins the back of the equal-time FIFO.
TEST(EventQueueTest, CallbackMayScheduleAtCurrentTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(2.0, [&] {
    fired.push_back(0);
    q.schedule(2.0, [&] { fired.push_back(2); });
  });
  q.schedule(2.0, [&] { fired.push_back(1); });
  q.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

// A deep schedule-from-inside chain grows the slab while callbacks are in
// flight (the pool must be safe to reallocate under a running callback).
TEST(EventQueueTest, CallbacksMayGrowThePoolWhileRunning) {
  EventQueue q;
  int count = 0;
  std::function<void()> fan = [&] {
    ++count;
    if (count < 200) {
      q.schedule(q.now() + 0.5, fan);
      q.schedule(q.now() + 1.0, [] {});
    }
  };
  q.schedule(0.0, fan);
  q.run_until(1e6);
  EXPECT_EQ(count, 200);
}

template <std::size_t N>
struct PaddedRecorder {
  std::vector<int>* out;
  int id;
  std::array<unsigned char, N> pad;
  void operator()() const {
    unsigned sum = 0;
    for (const auto b : pad) {
      sum += b;
    }
    // Every pad byte must survive the slab round-trip intact.
    ASSERT_EQ(sum, N * 7U);
    out->push_back(id);
  }
};

// Captures on both sides of the SBO threshold run correctly and in order.
TEST(EventQueueTest, CaptureSizesStraddleTheInlineThreshold) {
  PaddedRecorder<8> small{};
  PaddedRecorder<32> mid{};      // == 48 bytes with out+id: at the edge
  PaddedRecorder<48> large{};    // 64 bytes: spills to the heap box
  PaddedRecorder<240> larger{};  // far past the threshold
  static_assert(sizeof(small) <= EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(mid) == EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(large) > EventQueue::kInlineCaptureBytes);
  static_assert(sizeof(larger) > EventQueue::kInlineCaptureBytes);

  EventQueue q;
  std::vector<int> fired;
  int id = 0;
  const auto arm = [&](auto proto) {
    proto.out = &fired;
    proto.id = id++;
    proto.pad.fill(7);
    q.schedule(1.0, proto);
  };
  for (int round = 0; round < 3; ++round) {
    arm(small);
    arm(large);
    arm(mid);
    arm(larger);
  }
  while (q.step()) {
  }
  std::vector<int> expected(static_cast<std::size_t>(id));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(fired, expected);
}

// Move-only callables are supported (the slab moves, never copies).
TEST(EventQueueTest, MoveOnlyCallbacksAreMovedNotCopied) {
  EventQueue q;
  auto flag = std::make_unique<int>(41);
  int seen = 0;
  q.schedule(1.0, [flag = std::move(flag), &seen] { seen = *flag + 1; });
  while (q.step()) {
  }
  EXPECT_EQ(seen, 42);
}

// Destroying the queue releases the captures of never-fired events, for
// inline and boxed storage alike.
TEST(EventQueueTest, DestructorReleasesUnfiredCaptures) {
  const auto token = std::make_shared<int>(1);
  {
    EventQueue q;
    q.schedule(1.0, [token] {});                      // inline capture
    q.schedule(2.0, [token, pad = std::array<char, 64>{}] {
      (void)pad;
    });                                               // boxed capture
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A throwing callback propagates, its capture is destroyed, the slot is
// recycled and the queue remains usable.
TEST(EventQueueTest, ThrowingCallbackLeavesQueueConsistent) {
  const auto token = std::make_shared<int>(1);
  EventQueue q;
  bool survived = false;
  q.schedule(1.0, [token] { throw std::runtime_error("boom"); });
  q.schedule(2.0, [&survived] { survived = true; });
  EXPECT_THROW(q.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed despite the throw
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  while (q.step()) {
  }
  EXPECT_TRUE(survived);
}

TEST(EventQueueTest, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule(2.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule(1.0, [] {}), util::ContractViolation);
}

TEST(EventQueueTest, RejectsNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, nullptr), util::ContractViolation);
  EXPECT_THROW(q.schedule(1.0, EventQueue::Callback{}),
               util::ContractViolation);
  using FnPtr = void (*)();
  EXPECT_THROW(q.schedule(1.0, FnPtr{nullptr}), util::ContractViolation);
  EXPECT_TRUE(q.empty());  // failed schedules leak no slots or entries
}

TEST(EventQueueTest, EmptyQueueStepReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, SinkCountsTrafficSpillsAndSlabHighWater) {
  obs::Sink sink;
  EventQueue q;
  q.attach_sink(&sink);
  for (int i = 0; i < 6; ++i) {
    q.schedule(1.0, [] {});
  }
  q.schedule(2.0, [pad = std::array<char, 64>{}] { (void)pad; });
  while (q.step()) {
  }
  const auto snap = sink.metrics.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    return 0;
  };
  const auto gauge = [&](const std::string& name) -> double {
    for (const auto& g : snap.gauges) {
      if (g.name == name) {
        return g.value;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(counter("sim.event_queue.scheduled"), 7U);
  EXPECT_EQ(counter("sim.event_queue.fired"), 7U);
  EXPECT_EQ(counter("sim.event_queue.capture_spill"), 1U);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.pending_peak"), 7.0);
  EXPECT_DOUBLE_EQ(gauge("sim.event_queue.slab_slots"), 7.0);
}


// ---------------------------------------------------------------------------
// Arrival feeds merged by run_until(until, feed, handler).

/// A time-ordered arrival feed over fixed times; pop() returns the time.
struct TimesFeed {
  std::vector<double> times;
  std::size_t next = 0;

  [[nodiscard]] double next_at() const {
    return next < times.size() ? times[next]
                               : std::numeric_limits<double>::infinity();
  }
  double pop() { return times[next++]; }
};

static_assert(ArrivalFeed<TimesFeed>);

// Every arrival behaves as if scheduled before any server event: at equal
// times it fires first, also ahead of events scheduled before the run.
TEST(EventQueueFeedTest, ArrivalBeatsPendingEventAtItsTime) {
  EventQueue q;
  std::vector<std::string> fired;
  q.schedule(2.0, [&] { fired.push_back("event@2"); });
  q.schedule(1.0, [&] { fired.push_back("event@1"); });
  TimesFeed feed{.times = {0.5, 1.0, 2.0, 2.0, 3.0}};
  q.run_until(10.0, feed, [&](double at) {
    EXPECT_DOUBLE_EQ(q.now(), at);
    fired.push_back("arrival@" + std::to_string(static_cast<int>(at * 2)));
  });
  EXPECT_EQ(fired, (std::vector<std::string>{"arrival@1", "arrival@2",
                                             "event@1", "arrival@4",
                                             "arrival@4", "event@2",
                                             "arrival@6"}));
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

// An event a handler schedules at the handler's own time fires after every
// arrival at that time and before later ones.
TEST(EventQueueFeedTest, HandlerMayScheduleAtItsOwnTime) {
  EventQueue q;
  std::vector<std::string> fired;
  TimesFeed feed{.times = {1.0, 1.0, 2.0}};
  q.run_until(5.0, feed, [&](double at) {
    fired.push_back("arrival");
    if (fired.size() == 1) {
      q.schedule(at, [&] { fired.push_back("same-time event"); });
    }
  });
  EXPECT_EQ(fired, (std::vector<std::string>{"arrival", "arrival",
                                             "same-time event", "arrival"}));
}

TEST(EventQueueFeedTest, ArrivalsAfterUntilStayForTheNextRun) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(4.0, [&] { fired.push_back(-4.0); });
  TimesFeed feed{.times = {1.0, 3.0, 5.0, 7.0}};
  const auto record = [&](double at) { fired.push_back(at); };
  q.run_until(3.0, feed, record);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 3.0}));
  EXPECT_DOUBLE_EQ(feed.next_at(), 5.0);  // not consumed
  EXPECT_EQ(q.pending(), 1U);
  q.run_until(6.0, feed, record);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 3.0, -4.0, 5.0}));
  q.run_until(20.0, feed, record);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 3.0, -4.0, 5.0, 7.0}));
  EXPECT_TRUE(q.empty());
}

// Fed arrivals count as scheduled and fired, but take no heap entry or
// slab slot: the high-water marks describe server events only.
TEST(EventQueueFeedTest, SinkCountsFedArrivalsAsScheduledAndFired) {
  obs::Sink sink;
  EventQueue q;
  q.attach_sink(&sink);
  TimesFeed feed{.times = {1.0, 2.0, 3.0, 4.0, 5.0}};
  q.run_until(10.0, feed, [&](double at) { q.schedule(at + 0.5, [] {}); });
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.scheduled").value(), 10U);
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.fired").value(), 10U);
  EXPECT_DOUBLE_EQ(sink.metrics.gauge("sim.event_queue.pending_peak").value(),
                   1.0);
  EXPECT_DOUBLE_EQ(sink.metrics.gauge("sim.event_queue.slab_slots").value(),
                   1.0);
  EXPECT_EQ(q.slab_slots(), 1U);
}

// A throwing handler propagates with its arrival consumed; the queue and
// the feed both stay usable.
TEST(EventQueueFeedTest, QueueStaysUsableAfterHandlerThrows) {
  EventQueue q;
  std::vector<double> fired;
  bool event_fired = false;
  q.schedule(2.5, [&event_fired] { event_fired = true; });
  TimesFeed feed{.times = {1.0, 2.0, 3.0}};
  const auto handler = [&](double at) {
    if (at == 2.0) {
      throw std::runtime_error("boom");
    }
    fired.push_back(at);
  };
  EXPECT_THROW(q.run_until(10.0, feed, handler), std::runtime_error);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_DOUBLE_EQ(feed.next_at(), 3.0);
  q.run_until(10.0, feed, handler);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 3.0}));
  EXPECT_TRUE(event_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFeedTest, RejectsAFeedThatGoesBackInTime) {
  EventQueue q;
  q.run_until(5.0);
  TimesFeed feed{.times = {4.0}};
  EXPECT_THROW(q.run_until(10.0, feed, [](double) {}),
               util::ContractViolation);
}

}  // namespace
}  // namespace vodbcast::sim
