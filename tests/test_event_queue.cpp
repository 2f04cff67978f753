#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
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

// A wide equal-time burst exercises the binary heap's sifts many levels
// deep, where only the sequence number orders the entries.
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

// FIFO order must survive callback-slot recycling: fire a wave (returning
// every slot to the free list, which reverses their order), then schedule a
// fresh equal-time wave into the recycled slots.
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

// A deep schedule-from-inside chain grows the callback slots while
// callbacks are in flight (the slot vector must be safe to reallocate under
// a running callback).
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
    // Every pad byte must survive the std::function round-trip intact.
    ASSERT_EQ(sum, N * 7U);
    out->push_back(id);
  }
};

// Captures of several sizes, small and large enough for std::function to
// allocate, run correctly and in order.
TEST(EventQueueTest, CaptureSizesStraddleTheInlineThreshold) {
  PaddedRecorder<8> small{};
  PaddedRecorder<32> mid{};      // 48 bytes with out+id
  PaddedRecorder<48> large{};    // 64 bytes
  PaddedRecorder<240> larger{};  // 256 bytes

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

// Destroying the queue releases the captures of never-fired events, small
// and heap-allocated alike.
TEST(EventQueueTest, DestructorReleasesUnfiredCaptures) {
  const auto token = std::make_shared<int>(1);
  {
    EventQueue q;
    q.schedule(1.0, [token] {});                      // small capture
    q.schedule(2.0, [token, pad = std::array<char, 64>{}] {
      (void)pad;
    });                                               // 80-byte capture
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
// callback slot: the high-water marks describe server events only.
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

/// A feed over the indices of fixed arrival times; pop() returns the index.
struct IndexFeed {
  const std::vector<double>* times;
  std::size_t next = 0;
  [[nodiscard]] double next_at() const {
    return next < times->size() ? (*times)[next]
                                : std::numeric_limits<double>::infinity();
  }
  std::size_t pop() { return next++; }
};

/// The seeded mix of the tie-rule tests below for one seed: events
/// scheduled before the run, events that callbacks (and, when
/// `handlers_spawn`, arrival handlers) schedule at now() and later, and fed
/// arrivals, all on a half-minute grid so that equal times are common.
/// `run(q, until, feed, on_arrival)` feeds the arrivals up to `until`,
/// calling on_arrival(i) per arrival in feed order. Because every newly
/// scheduled event is at or after now() and gets the next insertion
/// number, the engine must fire exactly the sort of everything by (time,
/// arrival before heap event, insertion order) — feed order for arrivals.
template <typename Run>
void expect_mix_fires_in_reference_order(unsigned seed, bool handlers_spawn,
                                         Run run) {
  constexpr std::size_t kArrivals = 6000;
  constexpr std::size_t kEvents = 6000;
  constexpr int kSlots = 2400;  // the horizon on the grid: 1200 min
  std::mt19937 rng(seed);
  const auto grid = [&rng](int slots) {
    return 0.5 * static_cast<double>(rng() % static_cast<unsigned>(slots));
  };
  // keys[id] = (time, 0 for an arrival / 1 for a heap event, order).
  std::vector<std::tuple<double, int, std::size_t>> keys;
  std::vector<double> arrival_times(kArrivals);
  for (auto& at : arrival_times) {
    at = grid(kSlots);
  }
  std::sort(arrival_times.begin(), arrival_times.end());
  for (std::size_t i = 0; i < kArrivals; ++i) {
    keys.emplace_back(arrival_times[i], 0, i);
  }

  EventQueue q;
  std::vector<std::size_t> fired;
  std::size_t events = 0;
  std::function<void()> maybe_spawn;
  const auto add_event = [&](double at) {
    const std::size_t id = keys.size();
    keys.emplace_back(at, 1, events++);
    q.schedule(at, [&fired, &maybe_spawn, id] {
      fired.push_back(id);
      maybe_spawn();
    });
  };
  // Half of what fires schedules one more event: half of those at now(),
  // tying with whatever is pending there, the rest up to 3.5 min later.
  maybe_spawn = [&] {
    if (events < kEvents && rng() % 2 == 0) {
      add_event(q.now() + (rng() % 2 == 0 ? 0.0 : grid(8)));
    }
  };
  // Handlers that spawn nothing leave the callbacks to grow the heap, so
  // more events start in it.
  for (int i = 0; i < (handlers_spawn ? 500 : 2500); ++i) {
    add_event(grid(kSlots));
  }

  IndexFeed feed{.times = &arrival_times};
  const auto on_arrival = [&](std::size_t i) {
    fired.push_back(i);
    if (handlers_spawn) {
      maybe_spawn();
    }
  };
  for (double until = 0.0; until < 1300.0; until += grid(200)) {
    run(q, until, feed, on_arrival);
  }
  run(q, 1300.0, feed, on_arrival);

  ASSERT_TRUE(q.empty());
  ASSERT_EQ(fired.size(), keys.size());
  ASSERT_GE(fired.size(), 10000U);
  std::vector<std::size_t> expected(keys.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::sort(expected.begin(), expected.end(),
            [&keys](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  EXPECT_EQ(fired, expected) << "seed " << seed;
}

// The tie rule, pinned independently of the heap, one arrival at a time.
TEST(EventQueueFeedTest, RandomizedMixFiresInReferenceOrder) {
  for (const unsigned seed : {1U, 2U, 3U, 4U, 5U}) {
    expect_mix_fires_in_reference_order(
        seed, true,
        [](EventQueue& q, double until, IndexFeed& feed,
           const auto& on_arrival) {
          q.run_until(until, feed, [&](std::size_t i) {
            EXPECT_EQ(q.now(), (*feed.times)[i]);
            on_arrival(i);
          });
        });
  }
}

// ---------------------------------------------------------------------------
// Arrival windows: run_windows_until(until, feed, on_window).

/// Records each window a run_windows_until() hands over, with now() at the
/// time the handler ran.
struct WindowLog {
  std::vector<std::vector<double>> windows;
  std::vector<double> now;
};

// A window ends before a pending heap event and at `until`, and never
// holds more than its size.
TEST(EventQueueWindowTest, StopsBeforeAPendingEventAndAtUntil) {
  EventQueue q;
  WindowLog log;
  bool event_fired = false;
  q.schedule(2.5, [&] {
    event_fired = true;
    log.windows.push_back({-2.5});
  });
  TimesFeed feed{.times = {1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0}};
  const auto on_window = [&](std::span<const double> window) {
    log.windows.emplace_back(window.begin(), window.end());
  };
  q.run_windows_until<3>(5.0, feed, on_window);
  EXPECT_TRUE(event_fired);
  EXPECT_EQ(log.windows, (std::vector<std::vector<double>>{
                             {1.0, 1.5, 2.0}, {-2.5}, {3.0, 3.5, 4.0},
                             {4.5, 5.0}}));
  EXPECT_DOUBLE_EQ(feed.next_at(), 6.0);  // after `until`: not consumed
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

// An arrival at a pending event's time joins the window before it: arrivals
// still fire before heap events at their own time.
TEST(EventQueueWindowTest, ArrivalAtAPendingEventsTimeFiresFirst) {
  EventQueue q;
  std::vector<std::string> fired;
  q.schedule(2.0, [&] { fired.push_back("event@2"); });
  TimesFeed feed{.times = {1.0, 2.0, 2.0, 3.0}};
  q.run_windows_until(10.0, feed, [&](std::span<const double> window) {
    std::string names;
    for (const double at : window) {
      names += (names.empty() ? "" : ",") + std::to_string(static_cast<int>(at));
    }
    fired.push_back("window " + names);
  });
  EXPECT_EQ(fired, (std::vector<std::string>{"window 1,2,2", "event@2",
                                             "window 3"}));
}

// Inside the handler now() is the window's last arrival, so an event can
// be scheduled at it or later, never inside the window.
TEST(EventQueueWindowTest, NowIsTheWindowsLastArrival) {
  EventQueue q;
  std::vector<double> now;
  std::size_t rejected = 0;
  std::vector<double> fired;
  TimesFeed feed{.times = {1.0, 2.0, 3.0, 7.0}};
  q.run_windows_until(10.0, feed, [&](std::span<const double> window) {
    now.push_back(q.now());
    EXPECT_EQ(q.now(), window.back());
    if (window.size() > 1) {
      EXPECT_THROW(q.schedule(window.front(), [] {}), util::ContractViolation);
      EXPECT_THROW(q.schedule(std::nextafter(window.back(), 0.0), [] {}),
                   util::ContractViolation);
      rejected += 2;
    }
    q.schedule(window.back(), [&] { fired.push_back(q.now()); });
  });
  EXPECT_EQ(now, (std::vector<double>{7.0}));
  EXPECT_EQ(rejected, 2U);
  EXPECT_EQ(fired, (std::vector<double>{7.0}));
  EXPECT_TRUE(q.empty());
}

// A sink counts each fed arrival once as scheduled and once as fired,
// whatever the window size, beside the heap events.
TEST(EventQueueWindowTest, SinkCountsEachArrivalOnce) {
  obs::Sink sink;
  EventQueue q;
  q.attach_sink(&sink);
  q.schedule(2.5, [] {});
  std::vector<double> times(600);
  for (std::size_t i = 0; i < times.size(); ++i) {
    times[i] = 0.01 * static_cast<double>(i);
  }
  TimesFeed feed{.times = times};
  std::size_t arrivals = 0;
  std::size_t windows = 0;
  q.run_windows_until(10.0, feed, [&](std::span<const double> window) {
    arrivals += window.size();
    ++windows;
  });
  EXPECT_EQ(arrivals, 600U);
  EXPECT_EQ(windows, 3U);  // 251 up to the event at 2.5, then 256 and 93
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.scheduled").value(), 601U);
  EXPECT_EQ(sink.metrics.counter("sim.event_queue.fired").value(), 601U);
  EXPECT_EQ(q.slab_slots(), 1U);
}

// A throwing handler propagates with its whole window consumed; the queue
// and the feed both stay usable.
TEST(EventQueueWindowTest, ThrowingHandlerConsumesItsWindow) {
  EventQueue q;
  std::vector<double> fired;
  bool event_fired = false;
  q.schedule(3.5, [&event_fired] { event_fired = true; });
  TimesFeed feed{.times = {1.0, 2.0, 3.0, 4.0, 5.0}};
  const auto on_window = [&](std::span<const double> window) {
    if (window.front() == 1.0) {
      throw std::runtime_error("boom");
    }
    fired.insert(fired.end(), window.begin(), window.end());
  };
  EXPECT_THROW(q.run_windows_until(10.0, feed, on_window), std::runtime_error);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
  EXPECT_DOUBLE_EQ(feed.next_at(), 4.0);
  EXPECT_FALSE(event_fired);
  q.run_windows_until(10.0, feed, on_window);
  EXPECT_EQ(fired, (std::vector<double>{4.0, 5.0}));
  EXPECT_TRUE(event_fired);
  EXPECT_TRUE(q.empty());
}

// A feed that goes back in time mid-window: the arrivals before the
// offending one are handed over, then the run throws with it unconsumed,
// as it does one arrival at a time.
TEST(EventQueueWindowTest, OutOfOrderArrivalEndsTheWindowThenThrows) {
  EventQueue q;
  std::vector<double> fired;
  TimesFeed feed{.times = {1.0, 2.0, 3.0, 2.5, 4.0}};
  EXPECT_THROW(q.run_windows_until(10.0, feed,
                                   [&](std::span<const double> window) {
                                     fired.insert(fired.end(), window.begin(),
                                                  window.end());
                                   }),
               util::ContractViolation);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(feed.next_at(), 2.5);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

/// Feeds the seeded mix in windows of `Window` arrivals, checking each
/// window's size and now(), and counting the windows that held more than
/// one arrival.
template <std::size_t Window>
struct RunInWindows {
  std::size_t* multi;
  void operator()(EventQueue& q, double until, IndexFeed& feed,
                  const auto& on_arrival) const {
    q.run_windows_until<Window>(
        until, feed, [&](std::span<const std::size_t> window) {
          EXPECT_LE(window.size(), Window);
          EXPECT_EQ(q.now(), (*feed.times)[window.back()]);
          *multi += window.size() > 1 ? 1 : 0;
          for (const std::size_t i : window) {
            on_arrival(i);
          }
        });
  }
};

// The tie rule in windows of 2, 7 and 256: event callbacks still spawn
// events at now() and later; arrival handlers, which run at their window's
// last arrival, spawn none.
TEST(EventQueueWindowTest, RandomizedMixFiresInReferenceOrder) {
  for (const unsigned seed : {1U, 2U, 3U, 4U, 5U}) {
    std::size_t multi = 0;
    expect_mix_fires_in_reference_order(seed, false, RunInWindows<2>{&multi});
    expect_mix_fires_in_reference_order(seed, false, RunInWindows<7>{&multi});
    expect_mix_fires_in_reference_order(seed, false,
                                        RunInWindows<256>{&multi});
    EXPECT_GT(multi, 0U) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vodbcast::sim
