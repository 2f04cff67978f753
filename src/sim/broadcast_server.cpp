#include "sim/broadcast_server.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::sim {

BroadcastServer::BroadcastServer(channel::ChannelPlan plan)
    : plan_(std::move(plan)) {
  // Index replicas once: tune-in queries run per client arrival, and a
  // metro plan carries thousands of streams of which only one or two are
  // replicas of the requested (video, segment). Indices (not pointers)
  // keep the index valid across copies and moves of the server.
  const auto& streams = plan_.streams();
  if (streams.empty()) {
    return;  // an empty range: every key is outside it
  }
  const auto videos =
      std::ranges::minmax(streams, {}, &channel::PeriodicBroadcast::video);
  const auto segments =
      std::ranges::minmax(streams, {}, &channel::PeriodicBroadcast::segment);
  video_base_ = videos.min.video;
  segment_base_ = segments.min.segment;
  videos_ = std::uint64_t{videos.max.video} - video_base_ + 1;
  segments_ = static_cast<std::uint64_t>(
      std::int64_t{segments.max.segment} - segment_base_ + 1);
  const auto key_of = [this](const channel::PeriodicBroadcast& s) {
    return (std::uint64_t{s.video} - video_base_) * segments_ +
           static_cast<std::uint64_t>(std::int64_t{s.segment} - segment_base_);
  };
  // Counting sort: count each key's replicas, prefix-sum the counts into
  // each key's end, then place streams back to front, so every key's
  // replicas keep stream order and its offset ends on its first replica.
  offsets_.assign(videos_ * segments_ + 1, 0);
  for (const auto& s : streams) {
    ++offsets_[key_of(s)];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  replicas_.resize(streams.size());
  for (std::size_t i = streams.size(); i-- > 0;) {
    replicas_[--offsets_[key_of(streams[i])]] = static_cast<std::uint32_t>(i);
  }
}

std::optional<core::Minutes> BroadcastServer::worst_wait(core::VideoId video,
                                                         int segment) const {
  // Collect the replica streams; the steady-state start sequence is the
  // union of arithmetic progressions phase_p + n*period (all replicas share
  // one period by construction). The worst wait is the largest gap between
  // consecutive starts within one period.
  const auto replicas = replicas_of(video, segment);
  if (replicas.empty()) {
    return std::nullopt;
  }
  const auto& streams = plan_.streams();
  const double period = streams[replicas.front()].period.v;
  std::vector<double> phases;
  phases.reserve(replicas.size());
  for (const std::uint32_t i : replicas) {
    VB_EXPECTS_MSG(std::abs(streams[i].period.v - period) < 1e-9 * period,
                   "replicas of one segment must share a period");
    phases.push_back(std::fmod(streams[i].phase.v, period));
  }
  std::sort(phases.begin(), phases.end());
  double worst = phases.front() + period - phases.back();
  for (std::size_t i = 1; i < phases.size(); ++i) {
    worst = std::max(worst, phases[i] - phases[i - 1]);
  }
  return core::Minutes{worst};
}

core::MbitPerSec BroadcastServer::aggregate_rate_at(core::Minutes t) const {
  double total = 0.0;
  for (const auto& s : plan_.streams()) {
    if (s.transmitting_at(t)) {
      total += s.rate.v;
    }
  }
  return core::MbitPerSec{total};
}

}  // namespace vodbcast::sim
