#include "sim/event_queue.hpp"

#include <limits>
#include <utility>

#include "obs/sink.hpp"

namespace vodbcast::sim {

void EventQueue::schedule(SimTime at, Callback fn) {
  VB_EXPECTS_MSG(at >= now_, "cannot schedule into the past");
  VB_EXPECTS_MSG(fn != nullptr, "null event callback");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    VB_EXPECTS_MSG(
        callbacks_.size() < std::numeric_limits<std::uint32_t>::max(),
        "event callback slots exhausted");
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(fn));
    if (sink_ != nullptr) {
      slab_slots_->max_of(static_cast<double>(callbacks_.size()));
    }
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  try {
    heap_.push_back(Entry{at, next_seq_, slot});
  } catch (...) {  // a failed allocation: hand the slot back
    callbacks_[slot] = nullptr;
    free_slots_.push_back(slot);
    throw;
  }
  ++next_seq_;
  std::push_heap(heap_.begin(), heap_.end(), fires_after);
  if (sink_ != nullptr) {
    scheduled_->add();
    pending_peak_->max_of(static_cast<double>(heap_.size()));
  }
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), fires_after);
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Take the callback and recycle its slot *before* invoking: the callback
  // may schedule, which may grow or reuse the slots.
  const Callback fn = std::exchange(callbacks_[entry.slot], nullptr);
  free_slots_.push_back(entry.slot);
  now_ = entry.at;
  if (sink_ != nullptr) {
    fired_->add();
    const obs::ScopedTimer timer(callback_ns_);
    fn();
  } else {
    fn();
  }
  return true;
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    step();
  }
  now_ = std::max(now_, until);
}

void EventQueue::attach_sink(obs::Sink* sink) {
  sink_ = sink;
  if (sink == nullptr) {
    scheduled_ = nullptr;
    fired_ = nullptr;
    pending_peak_ = nullptr;
    slab_slots_ = nullptr;
    callback_ns_ = nullptr;
    return;
  }
  scheduled_ = &sink->metrics.counter("sim.event_queue.scheduled");
  fired_ = &sink->metrics.counter("sim.event_queue.fired");
  pending_peak_ = &sink->metrics.gauge("sim.event_queue.pending_peak");
  slab_slots_ = &sink->metrics.gauge("sim.event_queue.slab_slots");
  callback_ns_ = &sink->metrics.histogram("sim.event_queue.callback_ns",
                                          obs::default_time_bounds_ns());
  slab_slots_->max_of(static_cast<double>(callbacks_.size()));
}

}  // namespace vodbcast::sim
