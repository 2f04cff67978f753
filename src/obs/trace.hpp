// Structured event tracer: a bounded ring buffer of typed simulation events.
//
// sim::simulate records its arrival path here (client arrived, tuned in,
// download started and ended, jitter, channel slot fired) as fixed-size
// PODs; nothing is formatted until export. It is the tracer's only writer:
// the control plane, the batching server and the fault path record spans
// (obs/span.hpp) only. When the ring fills, the oldest events are
// overwritten and `dropped()` counts the loss, so tracing can stay on for
// arbitrarily long runs with bounded memory.
//
// Exports:
//   * JSONL — one JSON object per line, ordered by simulation time
//     (stable across equal times), for jq/pandas consumption;
//   * Chrome trace-event JSON — loads in chrome://tracing / Perfetto.
//     One simulated minute is rendered as one second of trace time.
//
// The tracer is single-writer: the discrete-event simulation that feeds it
// is single-threaded. (Metrics, by contrast, are thread-safe.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vodbcast::obs {

enum class EventKind : std::uint8_t {
  kClientArrival,          ///< subscriber pressed play
  kTuneIn,                 ///< joined a segment-1 broadcast; value = wait min
  kSegmentDownloadStart,   ///< value = download duration, minutes
  kSegmentDownloadEnd,
  kJitter,                 ///< a reception plan missed a deadline
  kChannelSlotStart,       ///< a periodic broadcast transmission began
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// One recorded event. Fields not meaningful for a kind stay zero.
struct TraceEvent {
  double sim_time_min = 0.0;   ///< simulation clock, minutes
  EventKind kind = EventKind::kClientArrival;
  std::int32_t channel = 0;    ///< logical channel / loader / segment index
  std::uint64_t video = 0;
  std::uint64_t client = 0;    ///< per-run client ordinal (0 = n/a)
  double value = 0.0;          ///< kind-specific payload (see enum)
};

class Tracer {
 public:
  /// Preconditions: capacity >= 1.
  explicit Tracer(std::size_t capacity = 65536);

  void record(const TraceEvent& event) noexcept;

  /// Re-records `other`'s retained events (in their time order) into this
  /// ring. The shard-merge companion to Registry::merge_from: per-worker
  /// tracers folded in a fixed shard order reproduce the same ring — and the
  /// same drop count — at any thread count.
  void merge_from(const Tracer& other);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Total events ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Events lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Retained events ordered by sim time (stable for equal times, i.e.
  /// recording order breaks ties).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// One JSON object per line, same order as events().
  [[nodiscard]] std::string to_jsonl() const;
  /// Chrome trace-event format: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  [[nodiscard]] std::string to_chrome_trace() const;

  void clear() noexcept;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
};

}  // namespace vodbcast::obs
