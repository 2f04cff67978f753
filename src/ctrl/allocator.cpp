#include "ctrl/allocator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace vodbcast::ctrl {

namespace {

/// Titles sorted by weight descending, lower id first on ties.
std::vector<std::size_t> by_weight(const std::vector<double>& weights,
                                   const std::vector<std::size_t>& titles) {
  std::vector<std::size_t> order = titles;
  std::stable_sort(order.begin(), order.end(),
                   [&weights](std::size_t a, std::size_t b) {
                     if (weights[a] != weights[b]) {
                       return weights[a] > weights[b];
                     }
                     return a < b;
                   });
  return order;
}

}  // namespace

ChannelAllocator::ChannelAllocator(AllocatorConfig config)
    : config_(config) {
  if (!(config_.promote_ratio > 1.0) || !(config_.demote_ratio > 0.0) ||
      !(config_.demote_ratio <= 1.0) ||
      !(config_.promote_ratio > config_.demote_ratio)) {
    throw std::invalid_argument(
        "ChannelAllocator: hysteresis thresholds must differ with "
        "promote_ratio > 1 >= demote_ratio > 0 (got promote_ratio=" +
        std::to_string(config_.promote_ratio) +
        ", demote_ratio=" + std::to_string(config_.demote_ratio) + ")");
  }
  VB_EXPECTS(config_.channel_rate > 0.0);
  VB_EXPECTS(config_.target_hot_titles >= 1);
  VB_EXPECTS(config_.channels_per_video >= 1);
  VB_EXPECTS(config_.min_tail_channels >= 1);
  if (config_.total_bandwidth.v <
      config_.channel_rate * config_.min_tail_channels) {
    throw std::invalid_argument(
        "ChannelAllocator: total bandwidth " +
        std::to_string(config_.total_bandwidth.v) +
        " Mb/s cannot carry the " +
        std::to_string(config_.min_tail_channels) +
        "-channel tail floor at " + std::to_string(config_.channel_rate) +
        " Mb/s per channel");
  }
}

ChannelAllocator::SteadyCapacity ChannelAllocator::steady_capacity() const {
  const double b = config_.channel_rate;
  const double tail_floor = b * config_.min_tail_channels;
  SteadyCapacity cap;
  cap.channels_per_video = config_.channels_per_video;
  cap.hot_titles = config_.target_hot_titles;
  // Shrink channels per title first (bounded worst-case latency rises but
  // every hot title keeps its guarantee), then the hot set itself.
  while (cap.hot_titles >= 1 &&
         b * cap.channels_per_video * static_cast<double>(cap.hot_titles) +
                 tail_floor >
             config_.total_bandwidth.v) {
    if (cap.channels_per_video > 1) {
      --cap.channels_per_video;
    } else {
      --cap.hot_titles;
    }
  }
  cap.degraded = cap.channels_per_video < config_.channels_per_video ||
                 cap.hot_titles < config_.target_hot_titles;
  return cap;
}

Allocation ChannelAllocator::reallocate(
    const std::vector<double>& weights,
    const std::vector<std::size_t>& current_hot,
    const std::vector<std::size_t>& draining,
    double reserved_bandwidth) const {
  const auto cap = steady_capacity();
  const double b = config_.channel_rate;

  Allocation out;
  out.channels_per_video = cap.channels_per_video;
  out.degraded = cap.degraded;

  // Candidate pool: everything not currently draining. A draining title
  // cannot be re-promoted until its old plan has fully drained, so it never
  // competes this epoch.
  std::vector<bool> is_draining(weights.size(), false);
  for (const auto v : draining) {
    VB_ASSERT(v < weights.size());
    is_draining[v] = true;
  }
  std::vector<bool> is_hot(weights.size(), false);
  for (const auto v : current_hot) {
    VB_ASSERT(v < weights.size());
    VB_ASSERT(!is_draining[v]);
    is_hot[v] = true;
  }

  // Start from the incumbents, strongest first; capacity shrink demotes the
  // weakest without hysteresis (the budget decided, not the ranks).
  std::vector<std::size_t> hot = by_weight(weights, current_hot);
  while (hot.size() > cap.hot_titles) {
    out.demoted.push_back(hot.back());
    is_hot[hot.back()] = false;
    hot.pop_back();
  }

  std::vector<std::size_t> outsiders;
  outsiders.reserve(weights.size());
  for (std::size_t v = 0; v < weights.size(); ++v) {
    if (!is_hot[v] && !is_draining[v]) {
      outsiders.push_back(v);
    }
  }
  outsiders = by_weight(weights, outsiders);

  // Hysteresis swaps: the strongest outsider challenges the weakest
  // incumbent; both thresholds must hold. Each accepted swap strictly
  // raises the hot set's minimum weight, so this terminates.
  std::size_t next_outsider = 0;
  while (!hot.empty() && next_outsider < outsiders.size()) {
    const std::size_t incumbent = hot.back();
    const std::size_t challenger = outsiders[next_outsider];
    const double w_in = weights[incumbent];
    const double w_ch = weights[challenger];
    const bool promote = w_ch >= config_.promote_ratio * w_in;
    const bool demote = w_in <= config_.demote_ratio * w_ch;
    if (!(promote && demote)) {
      break;  // ordered by weight: no later pair can pass either
    }
    hot.pop_back();
    out.demoted.push_back(incumbent);
    is_hot[incumbent] = false;
    // Re-insert the challenger in weight order.
    const auto pos = std::lower_bound(
        hot.begin(), hot.end(), challenger,
        [&weights](std::size_t a, std::size_t bb) {
          if (weights[a] != weights[bb]) {
            return weights[a] > weights[bb];
          }
          return a < bb;
        });
    hot.insert(pos, challenger);
    is_hot[challenger] = true;
    out.promoted.push_back(challenger);
    ++next_outsider;
  }

  // Fill genuine vacancies (set smaller than capacity) with the best
  // remaining outsiders — an empty slot needs no hysteresis.
  while (hot.size() < cap.hot_titles && next_outsider < outsiders.size()) {
    const std::size_t challenger = outsiders[next_outsider++];
    if (weights[challenger] <= 0.0) {
      break;  // never broadcast a title nobody asked for
    }
    hot.push_back(challenger);
    is_hot[challenger] = true;
    out.promoted.push_back(challenger);
  }

  // Budget check for the promotions: incumbents keep their channels, the
  // drains keep theirs, the tail keeps its floor. Promotions that do not
  // fit are deferred (weakest first) rather than squeezing the tail.
  double incumbent_bw = 0.0;
  for (const auto v : hot) {
    const bool was_hot =
        std::find(current_hot.begin(), current_hot.end(), v) !=
        current_hot.end();
    if (was_hot) {
      incumbent_bw += b * cap.channels_per_video;
    }
  }
  const double tail_floor = b * config_.min_tail_channels;
  double available = config_.total_bandwidth.v - tail_floor -
                     reserved_bandwidth - incumbent_bw;
  const double per_title = b * cap.channels_per_video;
  std::vector<std::size_t> admitted;
  for (const auto v : by_weight(weights, out.promoted)) {
    if (available + 1e-9 >= per_title) {
      admitted.push_back(v);
      available -= per_title;
    } else {
      ++out.deferred_promotions;
      hot.erase(std::find(hot.begin(), hot.end(), v));
      is_hot[v] = false;
    }
  }
  out.promoted = admitted;

  std::sort(hot.begin(), hot.end());
  std::sort(out.promoted.begin(), out.promoted.end());
  std::sort(out.demoted.begin(), out.demoted.end());
  out.hot = std::move(hot);

  const double hot_bw =
      per_title * static_cast<double>(out.hot.size()) + reserved_bandwidth;
  out.tail_channels = static_cast<int>(
      (config_.total_bandwidth.v - hot_bw) / b + 1e-9);
  VB_ENSURES(out.tail_channels >= config_.min_tail_channels);
  return out;
}

}  // namespace vodbcast::ctrl
