#include "obs/span.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {

namespace {

// One simulated minute maps to 1e6 trace microseconds (= 1 s on screen),
// matching the Tracer's chrome export scale.
constexpr double kMicrosPerSimMinute = 1e6;

// Appends each part to `out`: text as is, integers in decimal, doubles
// round-trip exact. trace_analyze recomputes waits from these fields and
// compares sums against the metric families at 1e-9 relative tolerance, so
// the export must not round away bits.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  const auto put = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_floating_point_v<T>) {
      util::json::append_exact(out, part);
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, part).ptr);
    } else {
      out += part;
    }
  };
  (put(parts), ...);
}

// Bytes of a typical exported span, to reserve the output once.
constexpr std::size_t kSpanBytes = 160;

std::string span_name(const Span& s) {
  return s.label.empty() ? std::string(to_string(s.phase)) : s.label;
}

}  // namespace

const char* to_string(SpanPhase phase) noexcept {
  switch (phase) {
    case SpanPhase::kSession:
      return "session";
    case SpanPhase::kQueueWait:
      return "queue_wait";
    case SpanPhase::kTune:
      return "tune";
    case SpanPhase::kSegmentDownload:
      return "segment_download";
    case SpanPhase::kPlayback:
      return "playback";
    case SpanPhase::kRetransmit:
      return "retransmit";
    case SpanPhase::kDiskStall:
      return "disk_stall";
    case SpanPhase::kEpoch:
      return "epoch";
    case SpanPhase::kDrain:
      return "drain";
    case SpanPhase::kFaultEpisode:
      return "fault_episode";
    case SpanPhase::kRepair:
      return "repair";
    case SpanPhase::kRegionSession:
      return "region_session";
    case SpanPhase::kReroute:
      return "reroute";
    case SpanPhase::kPromote:
      return "promote";
    case SpanPhase::kFaultHit:
      return "fault_hit";
    case SpanPhase::kFaultDegraded:
      return "fault_degraded";
  }
  return "unknown";
}

SpanTracer::SpanTracer(std::size_t capacity) : capacity_(capacity) {
  VB_EXPECTS(capacity >= 1);
  ring_.reserve(std::min<std::size_t>(capacity, 4096));
}

std::uint64_t SpanTracer::record(Span span) {
  span.id = ++next_id_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[static_cast<std::size_t>(recorded_ % capacity_)] = std::move(span);
  }
  ++recorded_;
  return next_id_;
}

void SpanTracer::merge_from(const SpanTracer& other) {
  // Spans the source ring already overwrote are gone; only its retained
  // window transfers, in start order with source record order breaking ties.
  // A child may start before its parent (ctrl parents a queue absorbed at
  // promotion onto the later epoch), so every transferred span's new id is
  // assigned before any is recorded: record() hands out consecutive ids. A
  // parent lost to the source's wraparound maps to 0 (root).
  const auto transferred = other.spans();
  std::unordered_map<std::uint64_t, std::uint64_t> remap;
  remap.reserve(transferred.size());
  for (std::size_t i = 0; i < transferred.size(); ++i) {
    remap.emplace(transferred[i].id, next_id_ + 1 + i);
  }
  for (Span span : transferred) {
    const auto it = remap.find(span.parent);
    span.parent = (it != remap.end()) ? it->second : 0;
    record(std::move(span));
  }
}

std::vector<Span> SpanTracer::spans() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
  } else {
    // Oldest surviving span sits at the overwrite cursor.
    const auto cursor = static_cast<std::size_t>(recorded_ % capacity_);
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(cursor),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(cursor));
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_min < b.start_min;
  });
  return out;
}

std::string SpanTracer::to_jsonl() const {
  const auto ordered = spans();
  std::string out;
  out.reserve(ordered.size() * kSpanBytes);
  for (const auto& s : ordered) {
    append(out, "{\"id\":", s.id, ",\"parent\":", s.parent, ",\"phase\":\"",
           to_string(s.phase), "\",\"start\":", s.start_min, ",\"end\":",
           s.end_min, ",\"channel\":", s.channel, ",\"video\":", s.video,
           ",\"client\":", s.client, ",\"value\":", s.value);
    if (!s.label.empty()) {
      append(out, ",\"label\":", util::json::quote(s.label));
    }
    out += "}\n";
  }
  return out;
}

std::string SpanTracer::to_chrome_trace() const {
  const auto ordered = spans();
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(ordered.size());
  for (const auto& s : ordered) {
    by_id.emplace(s.id, &s);
  }

  std::string out;
  out.reserve(ordered.size() * 2 * kSpanBytes);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() -> const char* {
    const char* s = first ? "" : ",";
    first = false;
    return s;
  };
  for (const auto& s : ordered) {
    const double ts = s.start_min * kMicrosPerSimMinute;
    const double dur =
        std::max(0.0, (s.end_min - s.start_min) * kMicrosPerSimMinute);
    append(out, sep(), "\n{\"name\":", util::json::quote(span_name(s)),
           ",\"cat\":\"vodbcast.span\",\"ph\":\"X\",\"pid\":1,\"tid\":",
           s.channel, ",\"ts\":", ts, ",\"dur\":", dur,
           ",\"args\":{\"id\":", s.id, ",\"parent\":", s.parent,
           ",\"video\":", s.video, ",\"client\":", s.client, ",\"value\":",
           s.value, "}}");
    // Causal hand-off to a different channel track: a flow arrow from the
    // parent's slice to this one. Same-track children nest visually already.
    if (s.parent != 0) {
      const auto it = by_id.find(s.parent);
      if (it != by_id.end() && it->second->channel != s.channel) {
        const Span& p = *it->second;
        append(out, sep(), "\n{\"name\":\"causal\",\"cat\":\"vodbcast.flow\",",
               "\"ph\":\"s\",\"id\":", s.id, ",\"pid\":1,\"tid\":",
               p.channel, ",\"ts\":", p.start_min * kMicrosPerSimMinute, "}");
        append(out, sep(), "\n{\"name\":\"causal\",\"cat\":\"vodbcast.flow\",",
               "\"ph\":\"f\",\"bp\":\"e\",\"id\":", s.id,
               ",\"pid\":1,\"tid\":", s.channel, ",\"ts\":", ts, "}");
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string SpanTracer::to_folded() const {
  const auto ordered = spans();
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(ordered.size());
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    index_of.emplace(ordered[i].id, i);
  }
  // Children in start order (ordered is already sorted by start).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    if (ordered[i].parent != 0 && index_of.count(ordered[i].parent) != 0) {
      children[ordered[i].parent].push_back(i);
    }
  }

  // Self-time = span duration minus the union of its children's intervals
  // (children overlap freely: playback runs concurrently with downloads).
  std::map<std::string, std::uint64_t> stacks;
  const auto self_micros = [&](const Span& s) -> std::uint64_t {
    double covered = 0.0;
    double cursor = s.start_min;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const auto ci : it->second) {
        const Span& c = ordered[ci];
        const double lo = std::max(cursor, c.start_min);
        const double hi = std::min(s.end_min, c.end_min);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const double self = (s.end_min - s.start_min) - covered;
    return self > 0.0
               ? static_cast<std::uint64_t>(
                     std::llround(self * kMicrosPerSimMinute))
               : 0;
  };
  // DFS from each root so the stack string is the phase path root→leaf.
  struct Frame {
    std::size_t index;
    std::string path;
  };
  std::vector<Frame> work;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const bool is_root =
        ordered[i].parent == 0 || index_of.count(ordered[i].parent) == 0;
    if (is_root) {
      work.push_back({i, std::string(to_string(ordered[i].phase))});
    }
  }
  while (!work.empty()) {
    const Frame frame = std::move(work.back());
    work.pop_back();
    const Span& s = ordered[frame.index];
    const auto micros = self_micros(s);
    if (micros > 0) {
      stacks[frame.path] += micros;
    }
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const auto ci : it->second) {
        work.push_back(
            {ci, frame.path + ";" + to_string(ordered[ci].phase)});
      }
    }
  }

  std::ostringstream os;
  for (const auto& [stack, micros] : stacks) {
    os << stack << " " << micros << "\n";
  }
  return os.str();
}

void SpanTracer::clear() noexcept {
  ring_.clear();
  recorded_ = 0;
  next_id_ = 0;
}

std::uint64_t record_session(SpanTracer& spans, const SessionRecord& session) {
  const double end = session.reneged
                         ? session.served_min
                         : session.served_min + session.duration_min;
  Span span{.parent = session.parent,
            .start_min = session.arrival_min,
            .end_min = end,
            .phase = SpanPhase::kSession,
            .video = session.video,
            .client = session.client,
            .value = session.served_min - session.arrival_min,
            .label = {}};
  const auto id = spans.record(span);
  // The wait child shares the session's start, value and channel 0.
  span.parent = id;
  span.end_min = session.served_min;
  span.phase = session.wait_phase;
  spans.record(span);
  if (!session.reneged) {
    span.start_min = session.served_min;
    span.end_min = end;
    span.phase = SpanPhase::kPlayback;
    span.channel = session.playback_channel;
    span.value = session.duration_min;
    spans.record(span);
  }
  return id;
}

}  // namespace vodbcast::obs
