// Channel substrate: periodic broadcast timelines.
//
// Every scheme in the paper ultimately reduces to a set of *periodic
// broadcast streams*: stream s carries one (video, segment) pair at a fixed
// rate, transmitting for `transmission` minutes starting at
// phase + n * period for all n >= 0. This module models those streams and
// the aggregate channel plan, including the bandwidth-accounting invariant
// that concurrent transmissions never exceed the server budget.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "core/video.hpp"
#include "util/contracts.hpp"

namespace vodbcast::channel {

/// Slack on the stream timelines' boundary tests, in minutes: a time within
/// it of a broadcast start counts as that start.
inline constexpr double kTimeEps = 1e-9;

/// One periodic broadcast stream.
struct PeriodicBroadcast {
  int logical_channel = 0;       ///< which server channel carries it
  int subchannel = 0;            ///< PPB replica index; 0 otherwise
  core::VideoId video = 0;
  int segment = 1;               ///< 1-based segment index
  core::MbitPerSec rate{0.0};    ///< transmission rate
  core::Minutes period{0.0};     ///< time between broadcast starts
  core::Minutes phase{0.0};      ///< first start time (>= 0, < period)
  core::Minutes transmission{0.0};  ///< duration of one broadcast

  /// Start time of the first broadcast at or after `t`. Inline: every
  /// arrival's tune-in asks it once per replica.
  [[nodiscard]] core::Minutes next_start_at_or_after(core::Minutes t) const {
    VB_EXPECTS(period.v > 0.0);
    if (t.v <= phase.v) {
      return phase;
    }
    const double k = std::ceil((t.v - phase.v) / period.v - kTimeEps);
    return core::Minutes{phase.v + k * period.v};
  }

  /// Number of broadcasts started in [0, t).
  [[nodiscard]] std::uint64_t starts_before(core::Minutes t) const;

  /// True if a transmission is in progress at time t.
  [[nodiscard]] bool transmitting_at(core::Minutes t) const;
};

/// A complete server broadcast plan for one scheme instance.
class ChannelPlan {
 public:
  ChannelPlan() = default;
  explicit ChannelPlan(std::vector<PeriodicBroadcast> streams);

  [[nodiscard]] const std::vector<PeriodicBroadcast>& streams() const noexcept {
    return streams_;
  }
  [[nodiscard]] std::size_t stream_count() const noexcept {
    return streams_.size();
  }

  /// All streams carrying segments of `video`, ordered by segment index.
  [[nodiscard]] std::vector<PeriodicBroadcast> streams_for(
      core::VideoId video) const;

  /// The stream for (video, segment, subchannel); nullopt if absent.
  [[nodiscard]] std::optional<PeriodicBroadcast> find(
      core::VideoId video, int segment, int subchannel = 0) const;

  /// Peak aggregate transmission rate over one hyper-period, sampled at
  /// every transmission start/end boundary. For always-on plans (SB, PPB)
  /// this equals the sum of stream rates.
  [[nodiscard]] core::MbitPerSec peak_aggregate_rate() const;

  /// Number of distinct logical channels used.
  [[nodiscard]] int logical_channel_count() const;

 private:
  std::vector<PeriodicBroadcast> streams_;
};

}  // namespace vodbcast::channel
