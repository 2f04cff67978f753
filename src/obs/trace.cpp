#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {

namespace {

// One simulated minute maps to 1e6 trace microseconds (= 1 s on screen),
// keeping chrome://tracing timelines legible for hour-scale horizons.
constexpr double kMicrosPerSimMinute = 1e6;

}  // namespace

using util::json::number;

const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kClientArrival:
      return "client_arrival";
    case EventKind::kTuneIn:
      return "tune_in";
    case EventKind::kSegmentDownloadStart:
      return "segment_download_start";
    case EventKind::kSegmentDownloadEnd:
      return "segment_download_end";
    case EventKind::kJitter:
      return "jitter";
    case EventKind::kChannelSlotStart:
      return "channel_slot_start";
    case EventKind::kBatchFire:
      return "batch_fire";
    case EventKind::kRenege:
      return "renege";
    case EventKind::kRealloc:
      return "realloc";
    case EventKind::kPromote:
      return "promote";
    case EventKind::kDemote:
      return "demote";
    case EventKind::kDrainComplete:
      return "drain_complete";
    case EventKind::kFaultEpisode:
      return "fault_episode";
    case EventKind::kFaultHit:
      return "fault_hit";
    case EventKind::kRepair:
      return "repair";
    case EventKind::kFaultDegraded:
      return "fault_degraded";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  VB_EXPECTS(capacity >= 1);
  ring_.reserve(std::min<std::size_t>(capacity, 4096));
}

void Tracer::record(const TraceEvent& event) noexcept {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[static_cast<std::size_t>(recorded_ % capacity_)] = event;
  }
  ++recorded_;
}

void Tracer::merge_from(const Tracer& other) {
  // Events the source ring already overwrote are gone; only its retained
  // window transfers. dropped() here counts this ring's own overwrites.
  for (const auto& event : other.events()) {
    record(event);
  }
}

std::size_t Tracer::size() const noexcept { return ring_.size(); }

std::uint64_t Tracer::dropped() const noexcept {
  return recorded_ - ring_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
  } else {
    // Oldest surviving event sits at the overwrite cursor.
    const auto cursor = static_cast<std::size_t>(recorded_ % capacity_);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(cursor),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.sim_time_min < b.sim_time_min;
                   });
  return out;
}

std::string Tracer::to_jsonl() const {
  std::ostringstream os;
  for (const auto& e : events()) {
    os << "{\"t\":" << number(e.sim_time_min) << ",\"event\":\""
       << to_string(e.kind) << "\",\"channel\":" << e.channel
       << ",\"video\":" << e.video << ",\"client\":" << e.client
       << ",\"value\":" << number(e.value) << "}\n";
  }
  return os.str();
}

std::string Tracer::to_chrome_trace() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events()) {
    const double ts = e.sim_time_min * kMicrosPerSimMinute;
    os << (first ? "" : ",") << "\n{\"name\":\"" << to_string(e.kind)
       << "\",\"cat\":\"vodbcast\",\"pid\":1,\"tid\":" << e.channel
       << ",\"ts\":" << number(ts);
    if (e.kind == EventKind::kSegmentDownloadStart && e.value > 0.0) {
      // Downloads carry their duration: emit a complete ("X") span so the
      // viewer draws a bar instead of a tick.
      os << ",\"ph\":\"X\",\"dur\":"
         << number(e.value * kMicrosPerSimMinute);
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":{\"video\":" << e.video << ",\"client\":" << e.client
       << ",\"value\":" << number(e.value) << "}}";
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

void Tracer::clear() noexcept {
  ring_.clear();
  recorded_ = 0;
}

}  // namespace vodbcast::obs
