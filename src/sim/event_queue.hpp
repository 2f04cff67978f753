// Discrete-event core: time-ordered callbacks on a binary heap.
//
// Used by the scheduled-multicast (batching) server, the control plane and
// the end-to-end simulator. Two plain std::vectors hold the state: a binary
// min-heap of POD `(time, seq, slot)` entries, kept by std::push_heap and
// std::pop_heap on (time, seq), and one std::function callback per slot.
// Freed slots are reused through a free list, so heap sifts move only
// 24-byte entries and the callbacks take as many slots as the heap's peak.
//
// step() moves the callback out of its slot and recycles the slot before
// invoking it, so callbacks may freely schedule new events.
//
// Client arrivals never enter the heap. run_windows_until() takes a
// time-ordered arrival feed and merges it against the heap head, handing
// its handler windows of consecutive arrivals that all precede the next
// heap event, so the heap holds only server-side events (batch
// completions, drains, epochs, ...) and a run's memory is O(live events),
// not O(arrivals). run_until() with a feed is its window-of-one case.
//
// Determinism contract: events at equal times fire in insertion order
// (ties break on a monotonically increasing sequence number), and a fed
// arrival fires before any heap event at its own time — exactly as if
// every arrival had been scheduled before the first server event. Runs are
// therefore deterministic for a fixed seed.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/timer.hpp"
#include "util/contracts.hpp"

namespace vodbcast::obs {
struct Sink;
}  // namespace vodbcast::obs

namespace vodbcast::sim {

/// Simulation time in minutes (matching the paper's reporting unit).
using SimTime = double;

/// A time-ordered arrival source for EventQueue::run_windows_until() and
/// run_until(): next_at() is the time of the next arrival (+infinity once
/// the feed is exhausted) and never decreases; pop() removes that arrival
/// and returns it.
template <typename F>
concept ArrivalFeed = requires(F& feed) {
  { feed.next_at() } -> std::convertible_to<SimTime>;
  feed.pop();
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `at`; `at` must not precede now().
  /// Empty callbacks (nullptr, an empty std::function, a null function
  /// pointer) are rejected.
  void schedule(SimTime at, Callback fn);

  /// Fires the earliest event; returns false when the queue is empty.
  bool step();

  /// Fires events while the earliest is at or before `until`, then advances
  /// the clock to `until` (even when the queue drained earlier — idle time
  /// passes too). Never moves time backwards: with `until < now()` nothing
  /// fires and now() is unchanged. Events after `until` stay pending and
  /// fire on a later step()/run_until().
  void run_until(SimTime until);

  /// The most fed arrivals one window holds: enough to amortize a window's
  /// setup, few enough that its slots stay in L1.
  static constexpr std::size_t kArrivalWindow = 256;

  /// run_until() merged with an arrival feed, a window at a time: fires, in
  /// time order, the heap's events and the feed's arrivals at or before
  /// `until`. Up to `Window` consecutive arrivals that all precede the heap
  /// head (an arrival fires before any heap event at its own time) and
  /// `until` go to `on_window(std::span<const Arrival>)` at once, in feed
  /// order, with now() at the window's last arrival, so schedule() rejects
  /// an event inside the window. Fed arrivals never touch the heap or the
  /// callback slots, but a sink counts each one as scheduled and fired, and
  /// times each window as one callback. Arrivals after `until` stay in the
  /// feed for a later call. A throwing handler propagates with its whole
  /// window consumed; the queue stays usable.
  template <std::size_t Window = kArrivalWindow, ArrivalFeed Feed,
            typename WindowHandler>
  void run_windows_until(SimTime until, Feed& feed,
                         WindowHandler&& on_window) {
    static_assert(Window >= 1);
    using Arrival = std::remove_cvref_t<decltype(feed.pop())>;
    std::array<Arrival, Window> window;
    for (;;) {
      SimTime at = feed.next_at();
      // An arrival joins the window while it is at or before both the heap
      // head and `until`; no handler runs while the window fills, so the
      // heap cannot change under it.
      const SimTime stop =
          heap_.empty() ? until : std::min(until, heap_.front().at);
      if (at <= stop) {
        // An out-of-order arrival ends the window unconsumed, so the check
        // here throws on it once the arrivals before it are handled.
        VB_EXPECTS_MSG(at >= now_, "arrival feed is not time-ordered");
        std::size_t n = 0;
        for (;;) {
          now_ = at;
          window[n++] = feed.pop();
          if (n == Window) {
            break;
          }
          at = feed.next_at();
          if (!(at <= stop && at >= now_)) {
            break;
          }
        }
        const std::span<const Arrival> fed(window.data(), n);
        if (sink_ != nullptr) {
          scheduled_->add(n);
          fired_->add(n);
          const obs::ScopedTimer timer(callback_ns_);
          on_window(fed);
        } else {
          on_window(fed);
        }
      } else if (!heap_.empty() && heap_.front().at <= until) {
        step();
      } else {
        break;
      }
    }
    now_ = std::max(now_, until);
  }

  /// run_windows_until() one arrival at a time: hands each popped arrival
  /// to `on_arrival(arrival)` with now() at its time, so a handler may
  /// schedule at or after its own arrival.
  template <ArrivalFeed Feed, typename Handler>
  void run_until(SimTime until, Feed& feed, Handler&& on_arrival) {
    run_windows_until<1>(until, feed, [&on_arrival](const auto window) {
      on_arrival(window.front());
    });
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Callback slots held (live + recycled): the high-water mark of
  /// concurrently pending heap events; fed arrivals take none.
  [[nodiscard]] std::size_t slab_slots() const noexcept {
    return callbacks_.size();
  }

  /// Attaches an observability sink: schedule/fire counters, a queue-depth
  /// peak gauge, a per-callback cost histogram and the callback-slot
  /// high-water gauge, all under "sim.event_queue.*". Null detaches. With
  /// no sink attached the hot path pays one pointer test per operation.
  void attach_sink(obs::Sink* sink);

 private:
  /// POD heap entry; `slot` indexes callbacks_.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// The heap order: std::push_heap/pop_heap keep the entry that fires
  /// last at the bottom, so the front is the earliest (at, seq).
  static bool fires_after(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) {
      return a.at > b.at;
    }
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;

  // Instrument handles are resolved once in attach_sink(); null when no
  // sink is attached.
  obs::Sink* sink_ = nullptr;
  obs::Counter* scheduled_ = nullptr;
  obs::Counter* fired_ = nullptr;
  obs::Gauge* pending_peak_ = nullptr;
  obs::Gauge* slab_slots_ = nullptr;
  obs::Histogram* callback_ns_ = nullptr;
};

}  // namespace vodbcast::sim
