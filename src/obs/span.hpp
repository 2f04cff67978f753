// Causal span tracing: parent-linked, sim-time intervals with typed phases.
//
// The SpanTracer records *intervals* and their causal structure: a `session`
// span covers a client's whole stay, with `queue_wait` / `tune` /
// `segment_download` / `playback` children tiling it, plus `retransmit` and
// `disk_stall` children hanging off the delivery path and `epoch` / `drain`
// spans parenting the sessions a control-plane reallocation touched. Three
// phases are instants (start == end): `promote` under its epoch, and
// `fault_hit` / `fault_degraded` under the session whose download the fault
// damaged (or under the epoch, with client 0, for the control plane's
// restarts and forced demotions). The tree is what lets tools/trace_analyze
// walk a per-session critical path, attribute each reported wait minute to
// a phase, and check the client, drain and fault contracts.
//
// Storage mirrors Tracer: a bounded ring overwritten oldest-first, with
// `dropped()` counting the loss, so span capture stays on for arbitrarily
// long runs with bounded memory. Single-writer, like Tracer.
//
// Exports:
//   * JSONL — one span per line, ordered by start time (ties keep recording
//     order), numbers printed round-trip exact so downstream sums match the
//     metric families bit-for-bit;
//   * Chrome trace-event JSON — "X" complete events plus flow arrows
//     (ph:"s"/"f") from each parent to its cross-channel children, so
//     chrome://tracing / Perfetto draws the causal hand-offs between the
//     session track and the per-segment channel tracks;
//   * folded stacks — `phase;childphase <count>` lines (self-time in integer
//     sim-microseconds) for flamegraph.pl / speedscope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vodbcast::obs {

enum class SpanPhase : std::uint8_t {
  kSession,          ///< a client's whole stay; value = reported wait, min
  kQueueWait,        ///< batching/tail admission queue; value = wait, min
  kTune,             ///< arrival → first segment-1 slot; value = wait, min
  kSegmentDownload,  ///< one planned download; channel = segment index
  kPlayback,         ///< consumption window, tune end → video end
  kRetransmit,       ///< lossy delivery recovered by the next repetition
  kDiskStall,        ///< a segment missed its playback deadline
  kEpoch,            ///< control-plane epoch; value = hot-set size
  kDrain,            ///< demoted title's channels draining; value = minutes
  kFaultEpisode,     ///< injected fault window; value = episode index
  kRepair,           ///< damage → heal window; value = wait penalty, minutes
  kRegionSession,    ///< a metro request's stay; value = penalized wait, min
  kReroute,          ///< cross-region spill hop; value = transit, minutes
  kPromote,          ///< instant: title entered broadcast; value = channels
  kFaultHit,         ///< instant: a download met an episode; value = episode
  kFaultDegraded,    ///< instant: damage became degradation; value =
                     ///< episode (ctrl's forced demotion: dark minutes)
};

[[nodiscard]] const char* to_string(SpanPhase phase) noexcept;

/// One recorded span. Fields not meaningful for a phase stay zero. `id` is
/// assigned by SpanTracer::record; `parent` 0 means root. `label`, when
/// non-empty, overrides the phase name in the chrome export (escaped).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double start_min = 0.0;  ///< simulation clock, minutes
  double end_min = 0.0;
  SpanPhase phase = SpanPhase::kSession;
  std::int32_t channel = 0;  ///< logical channel / segment index
  std::uint64_t video = 0;
  std::uint64_t client = 0;  ///< per-run client ordinal (0 = n/a)
  double value = 0.0;        ///< phase-specific payload (see enum)
  std::string label;         ///< optional display name; empty → phase name
};

class SpanTracer {
 public:
  /// Preconditions: capacity >= 1.
  explicit SpanTracer(std::size_t capacity = 65536);

  /// Records a span, assigning it the next id (ids start at 1 and never
  /// repeat within a tracer). Returns the assigned id so callers can parent
  /// children onto it.
  std::uint64_t record(Span span);

  /// Re-records `other`'s retained spans (in their start-time order, ties in
  /// record order) into this ring, remapping ids: each transferred span gets
  /// a fresh id here, and parent links among transferred spans follow the
  /// remap (a parent lost to the source ring's wraparound becomes 0 = root).
  /// The shard-merge companion to Tracer::merge_from: per-worker span
  /// tracers folded in a fixed shard order — shard index first, record index
  /// within a shard — reproduce the same ring, ids and drop count at any
  /// thread count.
  void merge_from(const SpanTracer& other);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Spans currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Total spans ever recorded, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// Spans lost to ring wraparound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - ring_.size();
  }

  /// Retained spans ordered by start time (stable: recording order breaks
  /// ties, which after a fixed-order merge means shard index then record
  /// index).
  [[nodiscard]] std::vector<Span> spans() const;

  /// One JSON object per line, same order as spans(). Times and values are
  /// printed with round-trip precision (%.17g) so consumers recompute the
  /// exact doubles the metric families saw.
  [[nodiscard]] std::string to_jsonl() const;
  /// Chrome trace-event format with flow arrows between causally-linked
  /// spans that sit on different channel tracks.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// Folded stacks (`session;tune 1234567`), self-time in integer
  /// sim-microseconds, lines sorted for determinism.
  [[nodiscard]] std::string to_folded() const;

  void clear() noexcept;

 private:
  std::vector<Span> ring_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
  std::uint64_t next_id_ = 0;
};

/// One client's session as every broadcast and batching simulator records
/// it: a `session` root spanning arrival → end, a wait child (`tune` for a
/// broadcast, `queue_wait` for a batch) spanning arrival → served, and a
/// `playback` child spanning served → served + duration on the serving
/// channel. A reneged session has no playback and ends when it gave up.
struct SessionRecord {
  std::uint64_t parent = 0;  ///< 0 = root (ctrl parents absorbed queues)
  std::uint64_t video = 0;
  std::uint64_t client = 0;
  double arrival_min = 0.0;
  double served_min = 0.0;  ///< tune-in, batch start, or renege time
  SpanPhase wait_phase = SpanPhase::kTune;  ///< kTune or kQueueWait
  bool reneged = false;
  double duration_min = 0.0;  ///< playback length; unused when reneged
  std::int32_t playback_channel = 0;
};

/// Records the session tree into `spans` and returns the session span's id,
/// which download and repair spans parent onto. The session and its wait
/// child carry value = served − arrival, the playback child the duration.
/// (metro's region_session/reroute pair and net's packet session have
/// shapes of their own and do not come through here.)
std::uint64_t record_session(SpanTracer& spans, const SessionRecord& session);

}  // namespace vodbcast::obs
