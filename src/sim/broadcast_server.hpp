// Broadcast server: executes a ChannelPlan.
//
// The server side of periodic broadcast is stateless — every stream loops
// forever — so the server's job in the simulator is to answer tune-in
// queries ("when does the next broadcast of segment 1 of video v start after
// time t?") and to account for aggregate bandwidth.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/schedule.hpp"
#include "core/units.hpp"
#include "core/video.hpp"

namespace vodbcast::sim {

class BroadcastServer {
 public:
  explicit BroadcastServer(channel::ChannelPlan plan);

  [[nodiscard]] const channel::ChannelPlan& plan() const noexcept {
    return plan_;
  }

  /// Earliest start of any replica of (video, segment) at or after `t`.
  /// Returns nullopt if the plan does not carry that segment. Inline: it is
  /// every arrival's tune-in.
  [[nodiscard]] std::optional<core::Minutes> next_segment_start(
      core::VideoId video, int segment, core::Minutes t) const {
    const auto replicas = replicas_of(video, segment);
    if (replicas.empty()) {
      return std::nullopt;
    }
    // Earliest-encountered wins ties, matching the historical full scan in
    // stream order bit for bit.
    const auto& streams = plan_.streams();
    core::Minutes best = streams[replicas.front()].next_start_at_or_after(t);
    for (const std::uint32_t i : replicas.subspan(1)) {
      const core::Minutes start = streams[i].next_start_at_or_after(t);
      if (start.v < best.v) {
        best = start;
      }
    }
    return best;
  }

  /// Worst tune-in wait for (video, segment): the largest gap between
  /// consecutive replica starts (the scheme's access latency when segment
  /// is 1). Returns nullopt if the plan does not carry that segment.
  [[nodiscard]] std::optional<core::Minutes> worst_wait(core::VideoId video,
                                                        int segment) const;

  /// Aggregate transmission rate at time t.
  [[nodiscard]] core::MbitPerSec aggregate_rate_at(core::Minutes t) const;

 private:
  /// Replica streams of (video, segment) as indices into plan_.streams(),
  /// in stream order; empty when the plan does not carry the segment.
  /// Tune-in queries are per-arrival in the simulator, so they must not
  /// scan the whole metro plan (thousands of streams) when only a handful
  /// of replicas carry the requested segment.
  [[nodiscard]] std::span<const std::uint32_t> replicas_of(
      core::VideoId video, int segment) const noexcept {
    // A value below its base wraps to a huge offset and fails the bounds
    // test.
    const std::uint64_t v = std::uint64_t{video} - video_base_;
    const auto s =
        static_cast<std::uint64_t>(std::int64_t{segment} - segment_base_);
    if (v >= videos_ || s >= segments_) {
      return {};
    }
    const std::uint64_t key = v * segments_ + s;
    return {replicas_.data() + offsets_[key],
            replicas_.data() + offsets_[key + 1]};
  }

  channel::ChannelPlan plan_;
  // CSR index over the plan's dense (video, segment) range
  // [video_base_, video_base_ + videos_) x [segment_base_, segment_base_ +
  // segments_): key k = (video - video_base_) * segments_ + (segment -
  // segment_base_) owns replicas_[offsets_[k], offsets_[k + 1]).
  core::VideoId video_base_ = 0;
  int segment_base_ = 0;
  std::uint64_t videos_ = 0;
  std::uint64_t segments_ = 0;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> replicas_;
};

}  // namespace vodbcast::sim
