#include "channel/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace vodbcast::channel {

std::uint64_t PeriodicBroadcast::starts_before(core::Minutes t) const {
  VB_EXPECTS(period.v > 0.0);
  if (t.v <= phase.v) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::ceil((t.v - phase.v) / period.v - kTimeEps));
}

bool PeriodicBroadcast::transmitting_at(core::Minutes t) const {
  VB_EXPECTS(period.v > 0.0);
  if (t.v < phase.v) {
    return false;
  }
  const double within = std::fmod(t.v - phase.v, period.v);
  return within < transmission.v - kTimeEps;
}

ChannelPlan::ChannelPlan(std::vector<PeriodicBroadcast> streams)
    : streams_(std::move(streams)) {
  for (const auto& s : streams_) {
    VB_EXPECTS(s.period.v > 0.0);
    VB_EXPECTS(s.phase.v >= 0.0 && s.phase.v < s.period.v + kTimeEps);
    VB_EXPECTS(s.transmission.v > 0.0 &&
               s.transmission.v <= s.period.v + kTimeEps);
    VB_EXPECTS(s.rate.v > 0.0);
    VB_EXPECTS(s.segment >= 1);
  }
}

std::vector<PeriodicBroadcast> ChannelPlan::streams_for(
    core::VideoId video) const {
  std::vector<PeriodicBroadcast> result;
  for (const auto& s : streams_) {
    if (s.video == video) {
      result.push_back(s);
    }
  }
  std::sort(result.begin(), result.end(),
            [](const PeriodicBroadcast& a, const PeriodicBroadcast& b) {
              if (a.segment != b.segment) {
                return a.segment < b.segment;
              }
              return a.subchannel < b.subchannel;
            });
  return result;
}

std::optional<PeriodicBroadcast> ChannelPlan::find(core::VideoId video,
                                                   int segment,
                                                   int subchannel) const {
  for (const auto& s : streams_) {
    if (s.video == video && s.segment == segment &&
        s.subchannel == subchannel) {
      return s;
    }
  }
  return std::nullopt;
}

core::MbitPerSec ChannelPlan::peak_aggregate_rate() const {
  if (streams_.empty()) {
    return core::MbitPerSec{0.0};
  }
  // Fast path: when every stream loops continuously (transmission ==
  // period) the aggregate is constant, so the peak is just the sum.
  const bool always_on = std::all_of(
      streams_.begin(), streams_.end(), [](const PeriodicBroadcast& s) {
        return s.transmission.v >= s.period.v - kTimeEps;
      });
  if (always_on) {
    double total = 0.0;
    for (const auto& s : streams_) {
      total += s.rate.v;
    }
    return core::MbitPerSec{total};
  }
  // Sample the aggregate just after every transmission start within two
  // periods of every stream; for periodic plans this covers the steady state.
  std::vector<double> samples;
  for (const auto& s : streams_) {
    for (int k = 0; k < 2; ++k) {
      samples.push_back(s.phase.v + k * s.period.v + kTimeEps * 10);
    }
  }
  double peak = 0.0;
  for (const double t : samples) {
    double total = 0.0;
    for (const auto& s : streams_) {
      if (s.transmitting_at(core::Minutes{t})) {
        total += s.rate.v;
      }
    }
    peak = std::max(peak, total);
  }
  return core::MbitPerSec{peak};
}

int ChannelPlan::logical_channel_count() const {
  int max_channel = -1;
  for (const auto& s : streams_) {
    max_channel = std::max(max_channel, s.logical_channel);
  }
  return max_channel + 1;
}

}  // namespace vodbcast::channel
